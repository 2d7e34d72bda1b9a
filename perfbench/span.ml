(* In-memory span recorder for the traced run.

   A span has a name, a start, an end, a parent span and a request id.
   Spans nest per domain (each domain keeps its own stack of open spans),
   are kept in memory under one lock and are written out once, at exit.
   With recording off every call is a plain function call: the measured
   runs never read the clock on behalf of the recorder. *)

type t = {
  id : int;
  name : string;
  start : float;  (** seconds, {!Clock.now} *)
  stop : float;
  parent : int;  (** 0 for a root span *)
  req : int;  (** client request index, -1 when the span is not a request's *)
}

let on = ref false
let lock = Mutex.create ()
let store : t list ref = ref []
let next_id = Atomic.make 1
let stack : int list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let add s = Mutex.protect lock (fun () -> store := s :: !store)

(* Time [f ()] as a span nested under the calling domain's open span. *)
let with_ ?(req = -1) name f =
  if not !on then f ()
  else begin
    let st = Domain.DLS.get stack in
    let parent = match !st with p :: _ -> p | [] -> 0 in
    let id = Atomic.fetch_and_add next_id 1 in
    st := id :: !st;
    let start = Clock.now () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Clock.now () in
        st := List.tl !st;
        add { id; name; start; stop; parent; req })
      f
  end

(* A span whose bounds were taken elsewhere (client request phases, pool
   queue waits measured inside a job). *)
let record ?(req = -1) ?(parent = 0) name ~start ~stop =
  if !on then
    add { id = Atomic.fetch_and_add next_id 1; name; start; stop; parent; req }

let all () = Mutex.protect lock (fun () -> List.rev !store)
let dur s = s.stop -. s.start

let write path =
  let spans = all () in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%s,\"start_us\":%.1f,\"end_us\":%.1f,\"parent\":%d,\"req\":%d}\n"
        s.id (Json.escape s.name)
        ((s.start -. t0) *. 1e6)
        ((s.stop -. t0) *. 1e6)
        s.parent s.req)
    spans;
  close_out oc
