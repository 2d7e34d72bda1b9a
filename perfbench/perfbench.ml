(* Host-time benchmark of the infinity-stream stack.

     perfbench --workload W --seed N --seconds S --trace 0|1
               --exe PATH/infs_run.exe --workdir DIR

   Workloads (see perfbench/README.md for what each loads and bypasses):
   - batch_cold: the [batch --matrix --scale test --jobs 2] traffic on a
     2-domain pool, every pass from an empty compile cache;
   - sim_warm: the 16 paper-scale Table 3 variants x the 5 Fig. 11
     paradigms, warm data, one run at a time with every compile cached;
   - serve_mix: a fresh [infs_run serve --scale test --jobs 2] driven over
     two Unix-socket connections;
   - shard_mix: the same traffic through [serve --shards 2 --jobs 1].

   With --trace 0 the last stdout line is a JSON object holding every
   end-to-end metric; with --trace 1 it holds the per-layer metrics of the
   traced sweep (Traced). Any failed output check makes the exit code 1. *)

open Suite

let usage () =
  prerr_endline
    "usage: perfbench --workload batch_cold|sim_warm|serve_mix|shard_mix --seed N \
     --seconds S --trace 0|1 --exe INFS_RUN --workdir DIR";
  exit 2

let args =
  let rec go acc = function
    | k :: v :: tl when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) tl
    | [] -> acc
    | _ -> usage ()
  in
  go [] (List.tl (Array.to_list Sys.argv))

let arg k = match List.assoc_opt k args with Some v -> v | None -> usage ()
let int_arg k = match int_of_string_opt (arg k) with Some v -> v | None -> usage ()

let self_rss_mb () = Server.peak_rss_mb (Unix.getpid ())

(* the cold burst in process: the burst programs, twice each, submitted
   at once to the 2-domain pool from an empty compile cache *)
let inproc_burst pool =
  let wall, results = pool_pass pool (burst_jobs ()) in
  List.iter (fun pj -> check_run "batch_cold" pj.job pj.result) results;
  wall

let bursts = 3
let sessions = 3

type e2e = {
  setup_s : float;
  pass_s : float;
  cold_burst_s : float;
  p50_ms : float;
  p99_ms : float;
  goodput_rps : float;
  peak_rss_mb : float;
}

(* Latency percentiles are taken per window (a pass, or a third of the
   passes) and the median over windows is reported, so a transient stall
   on the host moves one window, not the figure. *)
let windowed windows q = median (List.map (quantile q) windows)

let batch_cold ~seed ~seconds =
  let rng = Rng.create seed in
  (* set-up: the job list from the catalog and a 2-domain pool *)
  let setup () =
    snd
      (timed (fun () ->
           ignore (matrix_jobs (Rng.copy rng));
           Pool.shutdown (Pool.create ~jobs:2 ())))
  in
  (* a sub-millisecond set-up: many repetitions steady its median *)
  let setup_s = median (List.init 31 (fun _ -> setup ())) in
  let jobs = matrix_jobs rng in
  let pool = Pool.create ~jobs:2 () in
  let t0 = Clock.now () in
  let burst_s = ref [] and passes = ref [] and windows = ref [] and ok = ref 0 in
  while List.length !passes < bursts || Clock.now () -. t0 < seconds do
    burst_s := inproc_burst pool :: !burst_s;
    let wall, results = pool_pass pool jobs in
    passes := wall :: !passes;
    List.iter
      (fun pj ->
        let before = tally.failed in
        check_run "batch_cold" pj.job pj.result;
        if tally.failed = before then incr ok)
      results;
    windows := List.map (fun pj -> ms pj.done_s) results :: !windows
  done;
  Pool.shutdown pool;
  {
    setup_s;
    pass_s = median !passes;
    cold_burst_s = median !burst_s;
    p50_ms = windowed !windows 0.5;
    p99_ms = windowed !windows 0.99;
    goodput_rps = float_of_int !ok /. List.fold_left ( +. ) 0.0 !passes;
    peak_rss_mb = self_rss_mb ();
  }

let sim_warm ~seed ~seconds =
  let rng = Rng.create seed in
  let jobs = warm_jobs () in
  let check results = List.iter (fun (j, r, _) -> check_run "sim_warm" j r) results in
  (* set-up: fill the compile cache with one untimed pass in catalog
     order; the seed orders the timed passes *)
  let setup () =
    E.compile_cache_clear ();
    let results, s = timed (fun () -> sim_pass jobs) in
    check results;
    s
  in
  let setup_s = median (List.init 3 (fun _ -> setup ())) in
  let passes = ref [] and lat = ref [] and ok = ref 0 in
  while List.length !passes < 9 || List.fold_left ( +. ) 0.0 !passes < seconds do
    let results, wall = timed (fun () -> sim_pass (shuffle rng jobs)) in
    check results;
    passes := wall :: !passes;
    ok := !ok + List.length (List.filter (fun (_, r, _) -> Result.is_ok r) results);
    lat := List.map (fun (_, _, s) -> ms s) results :: !lat
  done;
  (* the single-domain set-up and passes set this process's peak; the
     bursts below run two domains and would make it a race *)
  let peak_rss_mb = self_rss_mb () in
  (* the bursts empty the compile cache, so they run last *)
  let pool = Pool.create ~jobs:2 () in
  let burst_s = List.init bursts (fun _ -> inproc_burst pool) in
  Pool.shutdown pool;
  (* three windows of consecutive passes *)
  let n = List.length !lat in
  let windows =
    List.init 3 (fun w ->
        List.concat (List.filteri (fun i _ -> i * 3 / n = w) !lat))
  in
  {
    setup_s;
    pass_s = median !passes;
    cold_burst_s = median burst_s;
    p50_ms = windowed windows 0.5;
    p99_ms = windowed windows 0.99;
    goodput_rps = float_of_int !ok /. List.fold_left ( +. ) 0.0 !passes;
    peak_rss_mb;
  }

(* Each server session runs every serving phase once: set-up (start until
   the socket accepts), a cold burst, an untimed warm-up pass, two timed
   closed-loop passes, a nominal open-loop window and an overload window.
   Figures are medians over sessions, so the state one server process
   happens to settle in (thread placement, heap size) moves one session,
   not the figure. Latency and goodput are taken from the best session
   instead: host interference (CPU steal on a shared machine) only ever
   adds latency and removes throughput, and it comes in bursts that spare
   some sessions. The nominal window holds at least 1000 samples per
   session at --seconds 12, so p99 has ten beyond it. *)
let serve_workload kind ~exe ~workdir ~seed ~seconds =
  let rng = Rng.create seed in
  let nominal_s = seconds /. 4.0 and over_s = seconds /. 12.0 in
  let sessions =
    List.init sessions (fun i ->
        let s, setup_s =
          timed (fun () ->
              Serving.open_session ~exe ~workdir ~name:(Printf.sprintf "serve%d" i) kind [])
        in
        let cold_burst_s = Serving.burst s in
        Serving.warm_up s;
        let passes = [ Serving.pass rng s; Serving.pass rng s ] in
        let nominal =
          Serving.ok_latencies_ms
            (Serving.open_loop rng s ~rate:Serving.nominal_rps ~seconds:nominal_s)
        in
        let over = Serving.open_loop rng s ~rate:Serving.overload_rps ~seconds:over_s in
        let peak_rss_mb = Server.tree_peak_rss_mb s.server in
        Serving.close_session s;
        check_served s.exemplars;
        ( passes,
          {
            setup_s;
            pass_s = median passes;
            cold_burst_s;
            p50_ms = quantile 0.5 nominal;
            p99_ms = quantile 0.99 nominal;
            goodput_rps = Serving.goodput over ~seconds:over_s;
            peak_rss_mb;
          } ))
  in
  let each f = List.map (fun (_, r) -> f r) sessions in
  {
    setup_s = median (each (fun r -> r.setup_s));
    pass_s = median (List.concat_map fst sessions);
    cold_burst_s = median (each (fun r -> r.cold_burst_s));
    p50_ms = Stats.minimum (each (fun r -> r.p50_ms));
    p99_ms = Stats.minimum (each (fun r -> r.p99_ms));
    goodput_rps = Stats.maximum (each (fun r -> r.goodput_rps));
    (* a session's peak depends on how its concurrent compiles overlapped;
       the mean over sessions is steadier than any one of them *)
    peak_rss_mb = Stats.mean (each (fun r -> r.peak_rss_mb));
  }

let end_to_end r =
  let attempted = float_of_int (max 1 tally.attempted) in
  [
    ("setup_s", r.setup_s, "s");
    ("pass_s", r.pass_s, "s");
    ("cold_burst_s", r.cold_burst_s, "s");
    ("p50_ms", r.p50_ms, "ms");
    ("p99_ms", r.p99_ms, "ms");
    ("goodput_rps", r.goodput_rps, "1/s");
    ( "ok_rate",
      float_of_int (tally.attempted - tally.failed - tally.shed) /. attempted,
      "ratio" );
    ("peak_rss_mb", r.peak_rss_mb, "MiB");
  ]

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = arg "workload" and seed = int_arg "seed" in
  if not (List.mem workload [ "batch_cold"; "sim_warm"; "serve_mix"; "shard_mix" ]) then usage ();
  let seconds = float_of_int (int_arg "seconds") in
  let trace = int_arg "trace" = 1 in
  let exe = arg "exe" and workdir = arg "workdir" in
  load_reference "perfbench/reference_cycles.json";
  let metrics =
    if trace then Traced.run ~exe ~workdir ~seed ~seconds
    else
      end_to_end
        (match workload with
        | "batch_cold" -> batch_cold ~seed ~seconds
        | "sim_warm" -> sim_warm ~seed ~seconds
        | "serve_mix" -> serve_workload Serving.Plain ~exe ~workdir ~seed ~seconds
        | _ -> serve_workload Serving.Sharded ~exe ~workdir ~seed ~seconds)
  in
  if trace then Span.write (Filename.concat workdir (Printf.sprintf "spans-%s-%d.jsonl" workload seed));
  List.iter (fun (n, v, u) -> Printf.printf "%-36s %14.4f %s\n" n v u) metrics;
  let correct = tally.failed = 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int tally.attempted));
            ("failed", Json.Num (float_of_int tally.failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
                   metrics) );
          ]));
  exit (if correct then 0 else 1)
