(* The traced run: one sweep over every layer, the same on each workload.
   It records spans around the benchmark's own calls into each layer's
   public functions (see Span) and reads server-side counts and stage
   times only from the server's existing side files: per-request stage
   times from --trace (the --prof file keeps only totals), counters and
   the front's latency histogram from --metrics. Each probe returns
   (metric, value, unit) triples. *)

open Suite

let sum = List.fold_left ( +. ) 0.0
let spans_ms ?req name =
  Span.all ()
  |> List.filter (fun (s : Span.t) ->
         s.name = name && match req with None -> true | Some r -> s.req = r)
  |> List.map Span.dur |> sum |> ms

let traced f =
  Span.on := true;
  Fun.protect ~finally:(fun () -> Span.on := false) f

(* ---- compiler and e-graph ---- *)

(* distinct programs in catalog order, keyed as the compile cache keys them *)
let distinct_programs wl =
  let seen = Hashtbl.create 32 in
  List.filter_map
    (fun (n, (w : W.t)) ->
      let k = Format.asprintf "%a" Ast.pp_program w.prog in
      if Hashtbl.mem seen k then None
      else begin
        Hashtbl.add seen k ();
        Some (n, w.prog)
      end)
    wl

let roots_of g mapping =
  List.map
    (fun o ->
      match o with
      | Tdfg.Out_tensor { src; _ } | Tdfg.Out_stream { src; _ } -> List.assoc src mapping)
    (Tdfg.outputs g)

(* Saturation and extraction of one kernel, step by step, as
   [Extract.optimize] runs them. Returns (rounds, e-nodes, e-classes). *)
let egraph_steps ~req ~extents initial =
  Span.with_ ~req "egraph.steps" @@ fun () ->
  let dtype = Tdfg.dtype initial in
  let g, mapping = Span.with_ ~req "Egraph.of_tdfg" (fun () -> Egraph.of_tdfg initial) in
  let roots = roots_of initial mapping in
  ignore (Span.with_ ~req "Extract.extract" (fun () -> Extract.extract ~dtype g ~roots));
  let rounds = Span.with_ ~req "Rules.saturate" (fun () -> Rules.saturate ~arrays:extents g) in
  ignore (Span.with_ ~req "Extract.extract" (fun () -> Extract.extract ~dtype g ~roots));
  (rounds, Egraph.node_count g, Egraph.class_count g)

let schedules g ~allow_spill =
  List.filter_map
    (fun wl ->
      Result.to_option
        (Span.with_ "Schedule.compile" (fun () ->
             Schedule.compile ~allow_spill ~wordlines:wl g)))
    Fat_binary.sram_geometries

(* [Fat_binary.compile]'s pipeline replayed through the public pieces,
   with the same schedule fallbacks, plus the step-by-step e-graph run
   (span [egraph.steps], left out of the replay's accounting). *)
let replay ~req prog =
  let counts = ref (0, 0, 0) in
  let span name f = Span.with_ ~req name f in
  span "compile.replay" (fun () ->
      match span "Ast.validate" (fun () -> Ast.validate prog) with
      | Error _ -> ()
      | Ok () ->
        let extents = span "Frontend.array_extents" (fun () -> Frontend.array_extents prog) in
        List.iter
          (fun k ->
            ignore (span "Kernel_info.analyze" (fun () -> Kernel_info.analyze prog k));
            ignore (span "Sdfg.of_kernel" (fun () -> Sdfg.of_kernel prog k));
            match span "Frontend.extract" (fun () -> Frontend.extract prog k) with
            | Error _ -> ()
            | Ok initial ->
              let r, n, c = egraph_steps ~req ~extents initial in
              let r0, n0, c0 = !counts in
              counts := (r0 + r, n0 + n, c0 + c);
              let optimized, _ =
                span "Extract.optimize" (fun () -> Extract.optimize ~arrays:extents initial)
              in
              let g =
                if schedules optimized ~allow_spill:false <> [] then optimized
                else if schedules initial ~allow_spill:false <> [] then initial
                else (
                  ignore (schedules optimized ~allow_spill:true);
                  optimized)
              in
              ignore (span "Fat_binary.derive_hints" (fun () -> Fat_binary.derive_hints g)))
          (Ast.kernels prog));
  !counts

let compile_probe () =
  let progs = distinct_programs (test_workloads ()) in
  (* untraced, single domain: the base for compile.other_ms, and the
     allocation count *)
  let fb_s = ref 0.0 and words = ref 0.0 and nodes_out = ref 0 in
  List.iter
    (fun (n, prog) ->
      let w0 = Gc.minor_words () in
      let fb, s = timed (fun () -> Fat_binary.compile prog) in
      words := !words +. (Gc.minor_words () -. w0);
      fb_s := !fb_s +. s;
      match fb with
      | Ok fb ->
        List.iter
          (fun (r : Fat_binary.region) -> nodes_out := !nodes_out + Tdfg.node_count r.optimized)
          fb.regions
      | Error e -> fail (n ^ ": compile failed: " ^ e))
    progs;
  let per_program =
    traced (fun () ->
        List.mapi (fun req (n, prog) -> (n, req, replay ~req prog)) progs)
  in
  let phase name = spans_ms name in
  let frontend = phase "Frontend.extract"
  and optimize = phase "Extract.optimize"
  and schedule = phase "Schedule.compile" in
  let egraph =
    phase "Egraph.of_tdfg" +. phase "Rules.saturate" +. phase "Extract.extract"
  in
  [
    ("frontend.extract_ms", frontend, "ms");
    ("egraph.saturate_ms", phase "Rules.saturate", "ms");
    ("egraph.extract_ms", phase "Extract.extract", "ms");
    ("egraph.optimize_ms", optimize, "ms");
    ("schedule.compile_ms", schedule, "ms");
    ("compile.other_ms", ms !fb_s -. frontend -. optimize -. schedule, "ms");
    ("tdfg.nodes_out", float_of_int !nodes_out, "count");
    ("compile.minor_words", !words, "words");
    ("account.compile_untraced_ms", ms !fb_s, "ms");
    ( "account.compile_replay_share",
      (phase "compile.replay" -. phase "egraph.steps") /. ms !fb_s,
      "ratio" );
    ("account.egraph_share", egraph /. optimize, "ratio");
  ]
  @ List.concat_map
      (fun p ->
        match List.find_opt (fun (n, _, _) -> n = p) per_program with
        | None -> fail (p ^ ": not in the catalog"); []
        | Some (_, req, (rounds, nodes, classes)) ->
          [
            ("egraph.saturate_ms." ^ p, spans_ms ~req "Rules.saturate", "ms");
            ("egraph.enodes." ^ p, float_of_int nodes, "count");
            ("egraph.eclasses." ^ p, float_of_int classes, "count");
            ("egraph.rounds." ^ p, float_of_int rounds, "count");
          ])
      burst_programs

(* ---- compile cache and pool ---- *)

let checked_pass pool jobs =
  let wall, results = pool_pass pool jobs in
  List.iter (fun pj -> check_run "batch_cold" pj.job pj.result) results;
  (wall, results)

let pool_probe rng =
  let jobs = matrix_jobs rng in
  let pool2 = Pool.create ~jobs:2 () in
  let untraced2, _ = checked_pass pool2 jobs in
  let traced2, results = traced (fun () -> checked_pass pool2 jobs) in
  let _, misses, entries = E.compile_cache_stats () in
  Pool.shutdown pool2;
  let st = Pool.stats pool2 in
  let busy = Array.fold_left (fun a (_, b) -> a +. b) 0.0 st.workers in
  let pool1 = Pool.create ~jobs:1 () in
  let untraced1, _ = checked_pass pool1 jobs in
  Pool.shutdown pool1;
  let waits = List.map (fun pj -> ms pj.queue_wait_s) results in
  [
    ("ccache.misses", float_of_int misses, "events");
    ("ccache.entries", float_of_int entries, "count");
    ("ccache.useful_ratio", float_of_int entries /. float_of_int misses, "ratio");
    ("pool.queue_wait_ms.p50", median waits, "ms");
    ("pool.queue_wait_ms.max", Stats.maximum waits, "ms");
    ( "pool.busy_share",
      busy /. (st.wall_s *. float_of_int (Array.length st.workers)),
      "ratio" );
    ("pool.speedup_2v1", untraced1 /. untraced2, "ratio");
    ("pool.pass_1domain_s", untraced1, "s");
    ("pool.pass_2domain_s", untraced2, "s");
    ("account.batch_trace_overhead_s", traced2 -. untraced2, "s");
  ]

(* ---- engine, runtime and sim ---- *)

let sim_probe rng =
  let jobs = shuffle rng (warm_jobs ()) in
  let check results = List.iter (fun (j, r, _) -> check_run "sim_warm" j r) results in
  (* fill the compile cache from another domain, so this domain's
     simulator caches are still empty for the cold pass *)
  let filler = Pool.create ~jobs:1 () in
  (match Pool.await (Pool.submit filler (fun () -> sim_pass jobs)) with
  | Ok results -> check results
  | Error e -> fail ("compile-cache fill: " ^ Pool.error_to_string e));
  Pool.shutdown filler;
  Costmemo.reset ();
  let cold, cold_s = timed (fun () -> sim_pass jobs) in
  check cold;
  let hit_rate = Costmemo.hit_rate () in
  let warm, traced_s = timed (fun () -> traced (fun () -> sim_pass jobs)) in
  check warm;
  let untraced, untraced_s = timed (fun () -> sim_pass jobs) in
  check untraced;
  let run_ms pred =
    sum (List.map (fun (j, _, s) -> if pred j then ms s else 0.0) warm)
  in
  let reports =
    List.filter_map (fun (j, r, _) -> Result.to_option r |> Option.map (fun r -> (j.key, r))) warm
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let jit f = float_of_int (List.fold_left (fun a (_, (r : R.t)) -> a + f r.jit) 0 reports) in
  let metrics =
    List.map
      (fun (pn, p) -> ("engine.run_ms." ^ pn, run_ms (fun j -> j.p = p), "ms"))
      fig11
    @ List.map
        (fun (label, wn) ->
          ( "engine.run_ms." ^ label,
            run_ms (fun j -> String.starts_with ~prefix:(wn ^ " x ") j.key),
            "ms" ))
        [ ("gauss_elim", "gauss_elim"); ("mm_out", "mm/out"); ("conv3d", "conv3d") ]
    @ [
        ("engine.cold_pass_ms", ms cold_s, "ms");
        ("jit.invocations", jit (fun j -> j.R.invocations), "count");
        ("jit.memo_hits", jit (fun j -> j.R.memo_hits), "count");
        ("jit.commands", jit (fun j -> j.R.total_commands), "count");
        ("costmemo.hit_rate", hit_rate, "ratio");
        ( "sim.cycles_total",
          List.fold_left (fun a (_, (r : R.t)) -> a +. r.cycles) 0.0 reports,
          "cycles" );
        ("account.sim_trace_overhead_s", traced_s -. untraced_s, "s");
      ]
  in
  (metrics, List.map snd reports)

(* ---- interpreter and JSON ---- *)

let interp_probe () =
  traced (fun () ->
      List.iteri
        (fun req (_, (w : W.t)) ->
          for _ = 1 to 3 do
            match Interp.create w.prog ~params:w.params with
            | Error e -> fail (w.wname ^ ": " ^ e)
            | Ok env ->
              List.iter (fun (a, v) -> Interp.set_array env a v) (Lazy.force w.inputs);
              Span.with_ ~req "Interp.run" (fun () -> Interp.run env)
          done)
        (test_workloads ()));
  [ ("interp.run_ms", spans_ms "Interp.run" /. 3.0, "ms") ]

let json_probe rng reports =
  let lines = Array.mapi (fun i s -> body ~id:i s) (mix rng 2000) in
  let reps = 20 in
  traced (fun () ->
      Span.with_ "Json.parse" (fun () ->
          Array.iter (fun l -> if Result.is_error (Json.parse l) then fail ("unparsable " ^ l)) lines);
      Span.with_ "Json.print" (fun () ->
          for _ = 1 to reps do
            List.iter (fun r -> ignore (Json.to_string (R.to_json r))) reports
          done));
  [
    ("json.parse_us", spans_ms "Json.parse" *. 1e3 /. float_of_int (Array.length lines), "us");
    ( "json.print_us",
      spans_ms "Json.print" *. 1e3 /. float_of_int (reps * max 1 (List.length reports)),
      "us" );
  ]

(* ---- serving ---- *)

(* the series of a metrics side file *)
let series path =
  match Option.map Json.parse (Server.read_file path) with
  | None -> fail ("missing side file " ^ path); []
  | Some (Error e) -> fail e; []
  | Some (Ok j) -> (
    match Option.bind (Json.member "series" j) Json.to_list with
    | Some l -> l
    | None -> fail ("no series in " ^ path); [])

let counter ss name =
  List.fold_left
    (fun a s ->
      if Option.bind (Json.member "name" s) Json.to_str = Some name then
        a +. Option.value ~default:0.0 (Option.bind (Json.member "value" s) Json.to_num)
      else a)
    0.0 ss

let hist ss name =
  List.find_map
    (fun s ->
      if Option.bind (Json.member "name" s) Json.to_str <> Some name then None
      else
        let num k = Option.bind (Json.member k s) Json.to_num in
        let buckets =
          Option.value ~default:[] (Option.bind (Json.member "buckets" s) Json.to_list)
          |> List.filter_map (fun b ->
                 match Json.to_list b with
                 | Some [ ub; n ] -> (
                   match (Json.to_num ub, Json.to_int n) with
                   | Some ub, Some n -> Some (ub, n)
                   | _ -> None)
                 | _ -> None)
        in
        match (num "count", num "sum") with
        | Some c, Some sm -> Some { Metrics.count = int_of_float c; sum = sm; buckets }
        | _ -> None)
    ss

(* per request id: the server's (queue_wait, run, write_back) seconds, from
   its JSONL trace *)
let stage_times path =
  let tbl = Hashtbl.create 4096 in
  (match Server.read_file path with
  | None -> fail ("missing side file " ^ path)
  | Some s ->
    List.iter
      (fun l ->
        match Json.parse l with
        | Ok j when Option.bind (Json.member "ev" j) Json.to_str = Some "req" -> (
          match
            ( Option.bind (Json.member "request" j) Json.to_str,
              Option.bind (Json.member "stage" j) Json.to_str,
              Option.bind (Json.member "us" j) Json.to_num )
          with
          | Some r, Some st, Some us -> (
            match int_of_string_opt r with
            | Some id ->
              let prev = Option.value ~default:[] (Hashtbl.find_opt tbl id) in
              Hashtbl.replace tbl id ((st, us /. 1e6) :: prev)
            | None -> ())
          | _ -> ())
        | _ -> ())
      (String.split_on_char '\n' s));
  tbl

let serve_probe ~exe ~workdir ~seconds rng =
  let f ext = Filename.concat workdir ("traced-serve" ^ ext) in
  let s =
    Serving.open_session ~exe ~workdir ~name:"traced-serve" Serving.Plain
      [ "--trace"; f ".trace.jsonl"; "--metrics"; f ".metrics.json" ]
  in
  let nominal =
    traced (fun () ->
        ignore (Serving.burst s);
        Serving.warm_up s;
        let nominal =
          Serving.open_loop rng s ~rate:Serving.nominal_rps ~seconds:(0.25 *. seconds)
        in
        ignore (Serving.open_loop rng s ~rate:Serving.overload_rps ~seconds:(0.1 *. seconds));
        nominal)
  in
  Serving.close_session s;
  check_served s.exemplars;
  let stages = stage_times (f ".trace.jsonl") in
  let n = Array.length nominal.specs in
  let per_stage st =
    List.filter_map
      (fun i ->
        Option.bind (Hashtbl.find_opt stages (nominal.first_id + i)) (List.assoc_opt st))
      (List.init n Fun.id)
    |> List.map ms
  in
  (* client in-flight time (sent to answered) against the server's three
     stages of the same request; the remainder is transport *)
  let split =
    List.filter_map
      (fun i ->
        let r = nominal.r in
        match Hashtbl.find_opt stages (nominal.first_id + i) with
        | Some l when List.length l = 3 && Loadgen.is_answered r i ->
          let flight = r.answered.(i) -. r.sent.(i) in
          let server = sum (List.map snd l) in
          Some (server /. flight, ms (flight -. server))
        | _ -> None)
      (List.init n Fun.id)
  in
  let ss = series (f ".metrics.json") in
  List.concat_map
    (fun st ->
      let xs = per_stage st in
      [
        (Printf.sprintf "serve.%s_ms.p50" st, quantile 0.5 xs, "ms");
        (Printf.sprintf "serve.%s_ms.p99" st, quantile 0.99 xs, "ms");
      ])
    [ "queue_wait"; "run"; "write_back" ]
  @ [
      ("serve.shed", counter ss "serve.shed", "events");
      ("serve.admitted", counter ss "serve.admitted", "events");
      ("gen.late_ms", quantile 0.99 (Serving.lateness_ms nominal), "ms");
      ("account.serve_stage_share", median (List.map fst split), "ratio");
      ("account.serve_transport_ms", median (List.map snd split), "ms");
    ]

(* The front's latency histogram covers every request it saw, so each
   shard is warmed up over its own socket and the front carries only the
   nominal phase. *)
let shard_probe ~exe ~workdir ~seconds rng =
  let f ext = Filename.concat workdir ("traced-shard" ^ ext) in
  let s =
    Serving.open_session ~exe ~workdir ~name:"traced-shard" Serving.Sharded
      [ "--metrics"; f ".metrics.json" ]
  in
  for i = 0 to 1 do
    let path = Printf.sprintf "%s.shard%d" s.server.socket i in
    let fd = Serving.or_die "connect to shard" (Loadgen.connect path) in
    Serving.warm_up { s with fds = [ fd ] };
    Unix.close fd
  done;
  ignore
    (traced (fun () ->
         Serving.open_loop rng s ~rate:Serving.nominal_rps ~seconds:(0.25 *. seconds)));
  Serving.close_session s;
  check_served s.exemplars;
  let ss = series (f ".metrics.json") in
  let q p =
    match hist ss "shard.latency_us" with
    | Some h -> Metrics.hist_quantile h p /. 1e3
    | None -> fail "front metrics lack shard.latency_us"; nan
  in
  let hot = counter ss "shard.route_hot" in
  let routes = hot +. counter ss "shard.route_cold" +. counter ss "shard.route_moved" in
  [
    ("shard.proxy_ms.p50", q 0.5, "ms");
    ("shard.proxy_ms.p99", q 0.99, "ms");
    ("shard.route_hot_share", hot /. routes, "ratio");
    ("shard.redispatched", counter ss "shard.redispatched", "events");
  ]

let run ~exe ~workdir ~seed ~seconds =
  let rng = Rng.create seed in
  let compile = compile_probe () in
  let pool = pool_probe rng in
  let sim, reports = sim_probe rng in
  let interp = interp_probe () in
  let json = json_probe rng reports in
  let serve = serve_probe ~exe ~workdir ~seconds rng in
  let shard = shard_probe ~exe ~workdir ~seconds rng in
  compile @ pool @ sim @ interp @ json @ serve @ shard
