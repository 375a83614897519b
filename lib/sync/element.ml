type detail =
  | Clocked of {
      kind : Hb_cell.Kind.synchroniser;
      params : Model.params;
      mutable o_dz : Hb_util.Time.t;
    }
  | Fixed of {
      assertion_offset : Hb_util.Time.t;
      closure_offset : Hb_util.Time.t;
    }

type offsets = {
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

(* The derived offsets of the current state, by the Model formulas. An
   all-float record, so refreshing it stores floats flat and allocates
   nothing, and readers in other modules load them without a call. *)
let refresh t =
  let o = t.offsets in
  match t.detail with
  | Clocked c ->
    o.assertion <- Model.assertion_offset c.kind c.params ~o_dz:c.o_dz;
    o.closure <-
      t.extra_closure_delay +. Model.closure_offset c.kind c.params ~o_dz:c.o_dz;
    o.forward_headroom <- Model.forward_headroom c.kind c.params ~o_dz:c.o_dz;
    o.backward_headroom <- Model.backward_headroom c.kind c.params ~o_dz:c.o_dz
  | Fixed f ->
    o.assertion <- f.assertion_offset;
    o.closure <- t.extra_closure_delay +. f.closure_offset;
    o.forward_headroom <- 0.0;
    o.backward_headroom <- 0.0

let make ~id ~inst ~label ~replica ~extra_closure_delay ~assertion_edge
    ~closure_edge detail =
  let t =
    { id; inst; label; replica; extra_closure_delay; assertion_edge;
      closure_edge; detail; version = 0;
      offsets =
        { assertion = 0.0; closure = 0.0; forward_headroom = 0.0;
          backward_headroom = 0.0 };
    }
  in
  refresh t;
  t

let clocked ?(extra_closure_delay = 0.0) ~id ~inst ~label ~replica ~kind
    ~params ~assertion_edge ~closure_edge () =
  Model.validate params;
  if extra_closure_delay < 0.0 then
    invalid_arg "Element.clocked: negative extra closure delay";
  make ~id ~inst ~label ~replica ~extra_closure_delay
    ~assertion_edge:(Some assertion_edge) ~closure_edge:(Some closure_edge)
    (Clocked { kind; params; o_dz = Model.initial_o_dz kind params })

let input_boundary ~inst ~id ~label ~edge ~arrival_offset =
  make ~id ~inst ~label ~replica:0 ~extra_closure_delay:0.0
    ~assertion_edge:(Some edge) ~closure_edge:None
    (Fixed { assertion_offset = arrival_offset; closure_offset = 0.0 })

let output_boundary ~inst ~id ~label ~edge ~required_offset =
  make ~id ~inst ~label ~replica:0 ~extra_closure_delay:0.0
    ~assertion_edge:None ~closure_edge:(Some edge)
    (Fixed { assertion_offset = 0.0; closure_offset = required_offset })

let closure_offset t = t.offsets.closure
let assertion_offset t = t.offsets.assertion
let forward_headroom t = t.offsets.forward_headroom
let backward_headroom t = t.offsets.backward_headroom

(* Every effective change of an element's offset state bumps [version]
   and refreshes [offsets]; the slack engine compares versions against
   its last snapshot to find the clusters whose cached block results are
   stale. Clamped-to-equal writes do not bump, so converged elements stop
   dirtying clusters. *)
let write_o_dz t value =
  match t.detail with
  | Fixed _ -> ()
  | Clocked c ->
    if value <> c.o_dz then begin
      c.o_dz <- value;
      t.version <- t.version + 1;
      refresh t
    end

let shift t delta =
  match t.detail with
  | Fixed _ -> ()
  | Clocked c ->
    let interval = Model.o_dz_interval c.kind c.params in
    write_o_dz t (Hb_util.Interval.clamp (c.o_dz +. delta) interval)

let reset t =
  match t.detail with
  | Fixed _ -> ()
  | Clocked c -> write_o_dz t (Model.initial_o_dz c.kind c.params)

let o_dz t =
  match t.detail with
  | Clocked c -> c.o_dz
  | Fixed _ -> 0.0

let set_o_dz t v =
  match t.detail with
  | Fixed _ -> ()
  | Clocked c ->
    write_o_dz t (Hb_util.Interval.clamp v (Model.o_dz_interval c.kind c.params))

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
