type detail =
  | Clocked of {
      kind : Hb_cell.Kind.synchroniser;
      params : Model.params;
    }
  | Fixed of {
      assertion_offset : Hb_util.Time.t;
      closure_offset : Hb_util.Time.t;
    }

type offsets = Model.offsets = private {
  mutable o_dz : float;
  mutable assertion : float;
  mutable closure : float;
  mutable forward_headroom : float;
  mutable backward_headroom : float;
}

type t = {
  id : int;
  inst : int;
  label : string;
  replica : int;
  extra_closure_delay : Hb_util.Time.t;
  assertion_edge : Hb_clock.Edge.t option;
  closure_edge : Hb_clock.Edge.t option;
  detail : detail;
  mutable version : int;
  offsets : offsets;
}

let make ~id ~inst ~label ~replica ~extra_closure_delay ~assertion_edge
    ~closure_edge detail offsets =
  { id; inst; label; replica; extra_closure_delay; assertion_edge;
    closure_edge; detail; version = 0; offsets }

let clocked ?(extra_closure_delay = 0.0) ~id ~inst ~label ~replica ~kind
    ~params ~assertion_edge ~closure_edge () =
  Model.validate params;
  if extra_closure_delay < 0.0 then
    invalid_arg "Element.clocked: negative extra closure delay";
  make ~id ~inst ~label ~replica ~extra_closure_delay
    ~assertion_edge:(Some assertion_edge) ~closure_edge:(Some closure_edge)
    (Clocked { kind; params })
    (Model.initial_offsets kind params ~extra_closure_delay)

(* A boundary's closure offset is stored as [0.0 +. closure_offset], the
   sum with its zero extra closure delay, as for clocked elements. *)
let fixed ~id ~inst ~label ~assertion_edge ~closure_edge ~assertion_offset
    ~closure_offset =
  let extra_closure_delay = 0.0 in
  make ~id ~inst ~label ~replica:0 ~extra_closure_delay ~assertion_edge
    ~closure_edge
    (Fixed { assertion_offset; closure_offset })
    (Model.fixed_offsets ~assertion:assertion_offset
       ~closure:(extra_closure_delay +. closure_offset))

let input_boundary ~inst ~id ~label ~edge ~arrival_offset =
  fixed ~id ~inst ~label ~assertion_edge:(Some edge) ~closure_edge:None
    ~assertion_offset:arrival_offset ~closure_offset:0.0

let output_boundary ~inst ~id ~label ~edge ~required_offset =
  fixed ~id ~inst ~label ~assertion_edge:None ~closure_edge:(Some edge)
    ~assertion_offset:0.0 ~closure_offset:required_offset

let closure_offset t = t.offsets.closure
let assertion_offset t = t.offsets.assertion
let forward_headroom t = t.offsets.forward_headroom
let backward_headroom t = t.offsets.backward_headroom
let o_dz t = t.offsets.o_dz

(* Every effective change of an element's offset state bumps [version];
   the slack engine compares versions against its last snapshot to find
   the clusters whose cached block results are stale. The [Model] writes
   report a clamped-to-equal write as no change, so converged elements
   stop dirtying clusters. *)
let[@inline] bump t changed = if changed then t.version <- t.version + 1

let shift t delta =
  match t.detail with
  | Fixed _ -> ()
  | Clocked c ->
    bump t
      (Model.set c.kind c.params ~extra_closure_delay:t.extra_closure_delay
         t.offsets (t.offsets.o_dz +. delta))

let set_o_dz t v =
  match t.detail with
  | Fixed _ -> ()
  | Clocked c ->
    bump t
      (Model.set c.kind c.params ~extra_closure_delay:t.extra_closure_delay
         t.offsets v)

let reset t =
  match t.detail with
  | Fixed _ -> ()
  | Clocked c ->
    bump t
      (Model.reset c.kind c.params ~extra_closure_delay:t.extra_closure_delay
         t.offsets)

(* The loops over a design's elements. Each amount or offset reaches its
   [Model] write through the array it lives in, so no float is boxed per
   element. *)

let shift_all all amounts ~forward =
  let moved = ref false in
  for e = 0 to Array.length all - 1 do
    (* Hb_util.Time.is_positive amounts.(e) *)
    if Hb_util.Time.zero +. Hb_util.Time.eps < amounts.(e) then begin
      moved := true;
      let t = all.(e) in
      match t.detail with
      | Fixed _ -> ()
      | Clocked c ->
        bump t
          (Model.shift_by c.kind c.params
             ~extra_closure_delay:t.extra_closure_delay t.offsets amounts e
             ~forward)
    end
  done;
  !moved

let save_all all =
  let saved = Array.make (Array.length all) 0.0 in
  for e = 0 to Array.length all - 1 do
    saved.(e) <- all.(e).offsets.o_dz
  done;
  saved

let restore_all all saved =
  if Array.length saved <> Array.length all then
    invalid_arg "Element.restore_all: snapshot size mismatch";
  for e = 0 to Array.length all - 1 do
    let t = all.(e) in
    match t.detail with
    | Fixed _ -> ()
    | Clocked c ->
      bump t
        (Model.set_from c.kind c.params
           ~extra_closure_delay:t.extra_closure_delay t.offsets saved e)
  done

let reset_all all = Array.iter reset all

let version t = t.version

let is_boundary t =
  match t.detail with
  | Fixed _ -> true
  | Clocked _ -> false

let pp ppf t =
  let pp_edge ppf = function
    | Some e -> Hb_clock.Edge.pp ppf e
    | None -> Format.pp_print_string ppf "-"
  in
  Format.fprintf ppf "%s (assert %a%+.3f, close %a%+.3f)"
    t.label pp_edge t.assertion_edge (assertion_offset t)
    pp_edge t.closure_edge (closure_offset t)
