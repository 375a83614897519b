type cache = {
  cache_mode : Block.mode;
  versions : int array;
  results : Block.result option array array;
  dirty : bool array;
  arena : Hb_util.Arena.t;
}

type t = {
  design : Hb_netlist.Design.t;
  system : Hb_clock.System.t;
  config : Config.t;
  elements : Elements.t;
  table : Cluster.table;
  passes : Passes.t;
  clusters_of_element : int array array;
  mutable slack_cache : cache option;
  (* Per-cluster timing macros (Macro.t), extracted lazily by the macro
     slack path. Macros depend only on arc delays, so offset-moving
     iterations keep them; delay mutations evict the touched slots. *)
  mutable macro_cache : Macro.t option array option;
}

(* Element → incident clusters: an element touches a cluster when it
   appears among the cluster's input or output terminals. Built once per
   context; [Slacks.compute] walks it to translate "element moved" into
   "cluster is stale". Clusters come in id order, so each element meets
   its clusters in ascending order and [last] drops the repeats within one
   cluster: a counting walk sizes every row, a second walk fills it. *)
let incidence ~elements ~(table : Cluster.table) =
  let count = Elements.count elements in
  let clusters = table.Cluster.clusters in
  let last = Array.make count (-1) in
  (* [walk f] calls [f e id] once per element [e] and incident cluster
     [id], ascending in [id] for each [e]. *)
  let walk f =
    Array.fill last 0 count (-1);
    let visit id (terminals : Cluster.terminal array) =
      for k = 0 to Array.length terminals - 1 do
        let e = terminals.(k).Cluster.element in
        if last.(e) <> id then begin
          last.(e) <- id;
          f e id
        end
      done
    in
    for c = 0 to Array.length clusters - 1 do
      let cluster = clusters.(c) in
      visit cluster.Cluster.id cluster.Cluster.inputs;
      visit cluster.Cluster.id cluster.Cluster.outputs
    done
  in
  let sizes = Array.make count 0 in
  walk (fun e _ -> sizes.(e) <- sizes.(e) + 1);
  let rows = Array.map (fun n -> Array.make n 0) sizes in
  Array.fill sizes 0 count 0;
  walk (fun e id ->
      rows.(e).(sizes.(e)) <- id;
      sizes.(e) <- sizes.(e) + 1);
  rows

let make ~design ~system ?(config = Config.default) ?delays () =
  let elements = Elements.build ~design ~system ~config in
  let table = Cluster.extract ~design ~elements ?delays () in
  let passes = Passes.build ~system ~elements ~table in
  { design; system; config; elements; table; passes;
    clusters_of_element = incidence ~elements ~table;
    slack_cache = None;
    macro_cache = None;
  }

(* The slack cache, (re)created on demand. [versions] starts one behind
   every element (elements start at version >= 0) so the first compute
   treats every cluster as stale. *)
let create_cache t ~mode =
  let release_results arena rows =
    Array.iter
      (fun row ->
         Array.iter
           (function
             | None -> ()
             | Some (r : Block.result) ->
               Hb_util.Arena.release arena r.Block.ready;
               Hb_util.Arena.release arena r.Block.ready_rise;
               Hb_util.Arena.release arena r.Block.ready_fall;
               Hb_util.Arena.release arena r.Block.min_ready;
               Hb_util.Arena.release arena r.Block.required)
           row)
      rows
  in
  let arena =
    match t.slack_cache with
    | Some old ->
      (* Mode switch: recycle the old buffers through the arena. *)
      release_results old.arena old.results;
      old.arena
    | None -> Hb_util.Arena.create ()
  in
  let cache =
    { cache_mode = mode;
      versions = Array.make (Elements.count t.elements) (-1);
      results =
        Array.map
          (fun (plan : Passes.plan) ->
             Array.make (List.length plan.Passes.cuts) None)
          t.passes.Passes.plans;
      dirty = Array.make (Array.length t.table.Cluster.clusters) false;
      arena;
    }
  in
  t.slack_cache <- Some cache;
  cache

let cache t ~mode =
  match t.slack_cache with
  | Some cache when cache.cache_mode = mode -> cache
  | Some _ | None -> create_cache t ~mode

let invalidate_cache t =
  t.slack_cache <- None;
  t.macro_cache <- None

let macros t =
  match t.macro_cache with
  | Some store -> store
  | None ->
    let store = Array.make (Array.length t.table.Cluster.clusters) None in
    t.macro_cache <- Some store;
    store

let release_result arena (r : Block.result) =
  Hb_util.Arena.release arena r.Block.ready;
  Hb_util.Arena.release arena r.Block.ready_rise;
  Hb_util.Arena.release arena r.Block.ready_fall;
  Hb_util.Arena.release arena r.Block.min_ready;
  Hb_util.Arena.release arena r.Block.required

let invalidate_clusters t ids =
  let cluster_count = Array.length t.table.Cluster.clusters in
  List.iter
    (fun id ->
       if id < 0 || id >= cluster_count then
         invalid_arg "Context.invalidate_clusters: cluster id out of range")
    ids;
  (match t.macro_cache with
   | None -> ()
   | Some store -> List.iter (fun id -> store.(id) <- None) ids);
  match t.slack_cache with
  | None -> ()
  | Some cache ->
    List.iter
      (fun id ->
         let row = cache.results.(id) in
         Array.iteri
           (fun cut slot ->
              match slot with
              | None -> ()
              | Some result ->
                release_result cache.arena result;
                row.(cut) <- None)
           row)
      ids

let cache_result cache (cluster : Cluster.t) ~cut_index =
  match cache.results.(cluster.Cluster.id).(cut_index) with
  | Some result -> result
  | None ->
    let n = Array.length cluster.Cluster.nets in
    let result =
      { Block.ready = Hb_util.Arena.floats cache.arena n;
        ready_rise = Hb_util.Arena.floats cache.arena n;
        ready_fall = Hb_util.Arena.floats cache.arena n;
        min_ready = Hb_util.Arena.floats cache.arena n;
        required = Hb_util.Arena.floats cache.arena n;
      }
    in
    cache.results.(cluster.Cluster.id).(cut_index) <- Some result;
    result

(* The incidence rows after an update. An element's row lists the
   clusters of the nets it drives and reads, the clusters where it has a
   terminal. Only an element with a terminal in a rebuilt or renumbered
   cluster can change its row; the row array is copied at the first row
   that changes. *)
let update_incidence rows ~elements ~(table : Cluster.table) ~kept =
  let rows = ref rows and copied = ref false in
  let refresh (terminal : Cluster.terminal) =
    let e = terminal.Cluster.element in
    let nets =
      match elements.Elements.reads.(e) with
      | Some net -> net :: elements.Elements.drives.(e)
      | None -> elements.Elements.drives.(e)
    in
    let row =
      Array.of_list
        (List.sort_uniq Int.compare
           (List.map (fun net -> table.Cluster.cluster_of_net.(net)) nets))
    in
    if row <> !rows.(e) then begin
      if not !copied then begin
        rows := Array.copy !rows;
        copied := true
      end;
      !rows.(e) <- row
    end
  in
  Array.iteri
    (fun c o ->
       if o <> c then begin
         let cluster = table.Cluster.clusters.(c) in
         Array.iter refresh cluster.Cluster.inputs;
         Array.iter refresh cluster.Cluster.outputs
       end)
    kept;
  !rows

let apply_structural ctx ~design ~touched ?delays () =
  (* The element table survives: structural ECO never moves a sync pin,
     a port, or a control cone (Session.apply rejects such edits), so
     replication, control delays, reads/drives, and — critically — the
     live offset/version state all carry over unchanged. *)
  let elements = Elements.retarget ctx.elements ~design in
  let table, kept =
    Cluster.update ctx.table ~design ~elements ~touched ?delays ()
  in
  let passes = Passes.rebuild ctx.passes ~table ~kept in
  let cluster_count = Array.length table.Cluster.clusters in
  let rebuilt = ref 0 in
  Array.iter (fun o -> if o < 0 then incr rebuilt) kept;
  (* Cache surgery: carry result rows and macros for kept clusters —
     their arcs, cut lists and element versions are untouched — and
     start every rebuilt cluster with empty rows, which the refresh
     logic treats as dirty without any version bump. Buffers of the
     touched clusters' rows are recycled through the arena. *)
  let slack_cache =
    match ctx.slack_cache with
    | None -> None
    | Some old ->
      let results =
        Array.mapi
          (fun c (plan : Passes.plan) ->
             match kept.(c) with
             | -1 -> Array.make (List.length plan.Passes.cuts) None
             | o -> old.results.(o))
          passes.Passes.plans
      in
      List.iter
        (fun o ->
           let row = old.results.(o) in
           Array.iteri
             (fun cut slot ->
                match slot with
                | Some result ->
                  release_result old.arena result;
                  row.(cut) <- None
                | None -> ())
             row)
        (List.sort_uniq Int.compare touched);
      (* [dirty] is scratch that every compute fills first. *)
      let dirty =
        if Array.length old.dirty = cluster_count then old.dirty
        else Array.make cluster_count false
      in
      Some { old with results; dirty }
  in
  let macro_cache =
    match ctx.macro_cache with
    | None -> None
    | Some store ->
      Some
        (Array.init cluster_count (fun c ->
             match kept.(c) with
             | -1 -> None
             | o -> store.(o)))
  in
  ( { ctx with design; elements; table; passes;
               clusters_of_element =
                 update_incidence ctx.clusters_of_element ~elements ~table
                   ~kept;
               slack_cache; macro_cache },
    !rebuilt )
