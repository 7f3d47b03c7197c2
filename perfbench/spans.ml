(* The traced run's benchmark spans: one per public call the benchmark
   times (name, start, end, parent span, and the commit id shared by
   every span of one update step), kept in memory until the run ends
   and then written once as a Chrome trace_event file. The program's
   own Obs rings are written beside it with Obs.Export. A disabled
   store records nothing and costs one branch. *)

type t = {
  enabled : bool;
  epoch : float;  (** Mclock reading all stamps are relative to *)
  names : (string, int) Hashtbl.t;
  labels : string Prelude.Vec.t;
  spans : int Prelude.Vec.t;  (** flat: id, name, parent, commit, t0_ns, t1_ns *)
  mutable next_id : int;
}

let create ~enabled =
  {
    enabled;
    epoch = Prelude.Mclock.now ();
    names = Hashtbl.create 16;
    labels = Prelude.Vec.create ~dummy:"" ();
    spans = Prelude.Vec.create ~dummy:0 ();
    next_id = 0;
  }

let disabled = create ~enabled:false

let enabled t = t.enabled

let ns t s = int_of_float ((s -. t.epoch) *. 1e9)

(* A span id, reserved before the span's children run so they can
   name it as their parent. *)
let fresh t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let name_id t name =
  match Hashtbl.find_opt t.names name with
  | Some i -> i
  | None ->
    let i = Prelude.Vec.length t.labels in
    Prelude.Vec.push t.labels name;
    Hashtbl.replace t.names name i;
    i

let record t ~id ~name ~parent ~commit ~t0 ~t1 =
  if t.enabled then
    List.iter (Prelude.Vec.push t.spans)
      [ id; name_id t name; parent; commit; ns t t0; ns t t1 ]

(* Time [f ()], record it as a child of [parent], return the result
   and its duration in seconds. *)
let time t ~name ~parent ~commit f =
  let id = if t.enabled then fresh t else -1 in
  let t0 = Prelude.Mclock.now () in
  let r = f () in
  let t1 = Prelude.Mclock.now () in
  record t ~id ~name ~parent ~commit ~t0 ~t1;
  (r, t1 -. t0)

let count t = Prelude.Vec.length t.spans / 6

(* Start and end (Mclock seconds) of every span named [name]. *)
let windows t name =
  match Hashtbl.find_opt t.names name with
  | None -> []
  | Some k ->
    let s = Prelude.Vec.get t.spans in
    List.filter_map
      (fun r ->
        if s ((6 * r) + 1) = k then
          Some
            ( t.epoch +. (float_of_int (s ((6 * r) + 4)) /. 1e9),
              t.epoch +. (float_of_int (s ((6 * r) + 5)) /. 1e9) )
        else None)
      (List.init (count t) Fun.id)

let write t path =
  let oc = open_out path in
  let s = Prelude.Vec.get t.spans in
  let us ns = float_of_int ns /. 1e3 in
  output_string oc "{\"traceEvents\": [\n";
  for r = 0 to count t - 1 do
    let f k = s ((6 * r) + k) in
    Printf.fprintf oc
      "%s{\"name\": \"%s\", \"cat\": \"bench\", \"ph\": \"X\", \"pid\": 2, \"tid\": 0, \
       \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \"commit\": %d}}"
      (if r = 0 then "" else ",\n")
      (Prelude.Vec.get t.labels (f 1))
      (us (f 4))
      (us (f 5 - f 4))
      (f 0) (f 2) (f 3)
  done;
  output_string oc "\n]}\n";
  close_out oc
