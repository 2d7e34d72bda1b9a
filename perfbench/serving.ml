(* The serve_mix / shard_mix traffic: a fresh [infs_run serve] (plain, or
   a front over shard processes) driven over two Unix-socket connections
   from this process, in phases — cold bursts, closed-loop passes over
   every distinct spec, an open loop at a nominal rate and an open loop
   above capacity. *)

open Suite

(* Rates were set from capacity measured with this mix on a 2-vCPU host
   (see perfbench/README.md): both servers saturate at about 1300-1500
   ok answers per second; the nominal rate is about a third of that,
   below the knee, and the overload rate about 1.7 times it. *)
let nominal_rps = 400.0
let overload_rps = 2400.0

(* an ok answer counts toward goodput only within this latency *)
let goodput_limit_ms = 250.0
let connections = 2

type server_kind = Plain | Sharded

let server_args = function
  | Plain -> [ "--scale"; "test"; "--jobs"; "2" ]
  | Sharded -> [ "--scale"; "test"; "--shards"; "2"; "--jobs"; "1" ]

type session = {
  server : Server.t;
  fds : Unix.file_descr list;
  exemplars : (string, spec * string) Hashtbl.t;
      (** first ok response line per distinct spec *)
  mutable next_id : int;  (** request ids are unique within a session *)
}

let or_die what = function
  | Ok v -> v
  | Error e ->
    prerr_endline ("perfbench: " ^ what ^ ": " ^ e);
    exit 2

let open_session ~exe ~workdir ~name kind extra =
  let socket = Filename.concat workdir (name ^ ".sock") in
  let log = Filename.concat workdir (name ^ ".log") in
  let server =
    or_die "server start" (Server.start ~exe ~socket ~log (server_args kind @ extra))
  in
  let fds =
    List.init connections (fun _ -> or_die "connect" (Loadgen.connect socket))
  in
  { server; fds; exemplars = Hashtbl.create 512; next_id = 0 }

(* Drain and stop the server; its clean exit is an output check (every
   admitted request answered). *)
let close_session s =
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) s.fds;
  if not (Server.stop s.server) then fail "server did not drain and exit cleanly"

type phase = { specs : spec array; first_id : int; r : Loadgen.result }

(* Send [specs] in [mode] and account every request: ok answers count,
   [overloaded] answers count as shed where [allow_shed] (open loops, where
   a host stall can fill the admission queue), anything else fails. *)
let phase ?(allow_shed = false) s mode specs =
  let first_id = s.next_id in
  s.next_id <- s.next_id + Array.length specs;
  let on_line i line =
    let k = spec_key specs.(i) in
    if (not (Hashtbl.mem s.exemplars k)) && Loadgen.status_of line = "ok" then
      Hashtbl.replace s.exemplars k (specs.(i), line)
  in
  let r =
    Loadgen.run ~on_line ~fds:s.fds ~mode ~n:(Array.length specs)
      ~body:(fun i -> body ~id:(first_id + i) specs.(i))
      ~drain_s:60.0 ()
  in
  Array.iteri
    (fun i st ->
      tally.attempted <- tally.attempted + 1;
      match st with
      | "ok" -> ()
      | "overloaded" when allow_shed -> tally.shed <- tally.shed + 1
      | "" -> fail (spec_key specs.(i) ^ ": unanswered")
      | st -> fail (spec_key specs.(i) ^ ": " ^ st))
    r.Loadgen.status;
  if Span.(!on) then
    Array.iteri
      (fun i d ->
        let req = first_id + i in
        let sent = r.sent.(i) and ans = r.answered.(i) in
        if not (Float.is_nan ans) then begin
          Span.record ~req "client.request" ~start:d ~stop:ans;
          Span.record ~req "client.send_delay" ~start:d ~stop:sent;
          Span.record ~req "client.in_flight" ~start:sent ~stop:ans
        end)
      r.due;
  { specs; first_id; r }

let wall p =
  let r = p.r in
  Array.fold_left
    (fun m a -> if Float.is_nan a then m else Float.max m a)
    neg_infinity r.Loadgen.answered
  -. r.due.(0)

let burst s = wall (phase s (Loadgen.Open infinity) (Array.of_list (burst_specs ())))

(* one closed-loop pass over every distinct spec, in a seeded order *)
let pass rng s = wall (phase s Loadgen.Closed (Array.of_list (shuffle rng (distinct_specs ()))))

(* compile every program the mix uses: the non-functional specs share the
   functional ones' compile-cache keys *)
let warm_up s =
  ignore
    (phase s Loadgen.Closed
       (Array.of_list (List.filter (fun sp -> not sp.functional) (distinct_specs ()))))

let ok_latencies_ms p =
  let r = p.r in
  List.filter_map
    (fun i -> if r.status.(i) = "ok" then Some (Loadgen.latency_ms r i) else None)
    (List.init (Array.length r.status) Fun.id)

(* how late the sender ran: send time minus due time *)
let lateness_ms p =
  let r = p.r in
  List.filter_map
    (fun i ->
      if Float.is_nan r.Loadgen.sent.(i) then None
      else Some ((r.sent.(i) -. r.due.(i)) *. 1e3))
    (List.init (Array.length r.sent) Fun.id)

let open_loop rng s ~rate ~seconds =
  let n = max 1 (int_of_float (rate *. seconds)) in
  phase ~allow_shed:true s (Loadgen.Open rate) (mix rng n)

(* ok answers within the limit, per second of offered load *)
let goodput p ~seconds =
  float_of_int (List.length (List.filter (fun l -> l <= goodput_limit_ms) (ok_latencies_ms p)))
  /. seconds
