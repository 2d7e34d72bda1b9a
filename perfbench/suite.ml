(* What the benchmark runs: the catalogs, job lists, serving mixes and
   output checks shared by the measured and the traced runs. *)

module E = Infinity_stream.Engine
module R = Infinity_stream.Report
module W = Infinity_stream.Workload
module Cat = Infs_workloads.Catalog

let paradigms =
  [
    ("base1", E.Base_1);
    ("base", E.Base);
    ("near-l3", E.Near_l3);
    ("in-l3", E.In_l3);
    ("inf-s", E.Inf_s);
    ("inf-s-nojit", E.Inf_s_nojit);
  ]

(* the five Fig. 11 paradigms *)
let fig11 = List.filter (fun (n, _) -> n <> "base1") paradigms

(* The [infs_run list --scale test] catalog, built as the CLI builds it, so
   in-process runs and served runs resolve the same programs. *)
let test_workloads () =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Cat.all_variants (Cat.test_scale ())
    @ [
        ("vec_add", Infs_workloads.Micro.vec_add ~n:16_384);
        ("array_sum", Infs_workloads.Micro.array_sum ~n:16_384);
        ("pointnet/ssg", Infs_workloads.Pointnet.tiny ());
        ("pointnet/msg", Infs_workloads.Pointnet.tiny ());
      ])

(* the 16 paper-scale Table 3 variants *)
let paper_workloads () = Cat.all_variants (Cat.table3 ())

(* the four programs whose cold compile dominates (stencil3d, conv2d and
   conv3d take ~90% of the catalog's compile time) *)
let burst_programs = [ "stencil2d"; "stencil3d"; "conv2d"; "conv3d" ]

let batch_options = { E.default_options with share_compile = true }
let warm_options = { batch_options with warm_data = true }

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let median = Stats.median
let quantile = Stats.quantile
let ms s = s *. 1e3

let timed f =
  let t = Clock.now () in
  let v = f () in
  (v, Clock.now () -. t)

(* ---- operation accounting ---- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;  (** errors, timeouts, unanswered, failed checks *)
  mutable shed : int;  (** answered [overloaded]: refused, not failed *)
}

let tally = { attempted = 0; failed = 0; shed = 0 }
let reported = ref 0

let fail msg =
  tally.failed <- tally.failed + 1;
  incr reported;
  if !reported <= 10 then prerr_endline ("perfbench: check failed: " ^ msg)

(* ---- pinned simulated cycles ---- *)

(* [perfbench/reference_cycles.json] holds the simulated cycles of every
   (workload, paradigm) of batch_cold and sim_warm, produced by
   [infs_run batch] when the benchmark was defined. *)
let reference = Hashtbl.create 256

let load_reference path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Json.parse text with
  | Error e -> failwith ("reference: " ^ e)
  | Ok j ->
    List.iter
      (fun section ->
        match Json.member section j with
        | Some (Json.Obj kvs) ->
          List.iter
            (fun (k, v) ->
              match Json.to_num v with
              | Some c -> Hashtbl.replace reference (section, k) c
              | None -> failwith ("reference: bad cycles for " ^ k))
            kvs
        | _ -> failwith ("reference: missing section " ^ section))
      [ "batch_cold"; "sim_warm" ]

type job = { key : string; w : W.t; p : E.paradigm }

let key w p = w ^ " x " ^ p

let run_engine options j =
  try E.run ~options j.p j.w with e -> Error (Printexc.to_string e)

(* Count one engine run and check its cycles against the pin. *)
let check_run section j result =
  tally.attempted <- tally.attempted + 1;
  match result with
  | Error e -> fail (j.key ^ ": " ^ e)
  | Ok (r : R.t) -> (
    match Hashtbl.find_opt reference (section, j.key) with
    | None -> fail (j.key ^ ": no pinned cycles")
    | Some c ->
      if r.cycles <> c then
        fail (Printf.sprintf "%s: %h cycles, pinned %h" j.key r.cycles c))

(* batch --matrix traffic: every test workload x 6 paradigms, workload-major
   (the CLI order); the seed only permutes paradigms within a workload *)
let matrix_jobs rng =
  List.concat_map
    (fun (wn, w) ->
      List.map (fun (pn, p) -> { key = key wn pn; w; p }) (shuffle rng paradigms))
    (test_workloads ())

(* each burst program twice, the two copies adjacent so that a 2-way
   split puts one copy on each worker or connection *)
let burst_jobs () =
  let wl = test_workloads () in
  List.concat_map
    (fun n ->
      let j = { key = key n "inf-s"; w = List.assoc n wl; p = E.Inf_s } in
      [ j; j ])
    burst_programs

let warm_jobs () =
  List.concat_map
    (fun (wn, w) -> List.map (fun (pn, p) -> { key = key wn pn; w; p }) fig11)
    (paper_workloads ())

(* ---- in-process passes ---- *)

type pass_job = {
  job : job;
  result : (R.t, string) result;
  queue_wait_s : float;  (** submission to job start *)
  done_s : float;  (** completion, seconds after the pass began *)
}

(* Submit [jobs] to [pool] at once from an empty compile cache and await
   them in submission order. *)
let pool_pass pool jobs =
  E.compile_cache_clear ();
  let t0 = Clock.now () in
  let tickets =
    List.mapi
      (fun req j ->
        let submitted = Clock.now () in
        let tk =
          Span.with_ ~req "Pool.submit" (fun () ->
              Pool.submit pool (fun () ->
                  let start = Clock.now () in
                  Span.record ~req "pool.queue_wait" ~start:submitted ~stop:start;
                  let r =
                    Span.with_ ~req "pool.job" (fun () ->
                        Span.with_ ~req "Engine.run" (fun () ->
                            run_engine batch_options j))
                  in
                  (r, start -. submitted, Clock.now ())))
        in
        (req, j, tk))
      jobs
  in
  let results =
    List.map
      (fun (req, j, tk) ->
        match Span.with_ ~req "Pool.await" (fun () -> Pool.await tk) with
        | Ok (result, queue_wait_s, fin) ->
          { job = j; result; queue_wait_s; done_s = fin -. t0 }
        | Error e ->
          {
            job = j;
            result = Error (Pool.error_to_string e);
            queue_wait_s = nan;
            done_s = nan;
          })
      tickets
  in
  (Clock.now () -. t0, results)

(* One closed-loop pass, one run at a time on the calling domain; returns
   each run's result and wall time. *)
let sim_pass jobs =
  List.mapi
    (fun req j ->
      let t = Clock.now () in
      let r = Span.with_ ~req "Engine.run" (fun () -> run_engine warm_options j) in
      (j, r, Clock.now () -. t))
    jobs

(* ---- serving mix ---- *)

type spec = { sw : string; sp : string; functional : bool }

let spec_fields s =
  Printf.sprintf "\"workload\":\"%s\",\"paradigm\":\"%s\"%s" s.sw s.sp
    (if s.functional then ",\"functional\":true" else "")

let body ~id s = Printf.sprintf "{\"id\":%d,%s}" id (spec_fields s)
let spec_key s = "{" ^ spec_fields s ^ "}"

(* share of nominal and overload requests that ask for a functional run
   (interpreter reference plus tDFG evaluation on the server) *)
let functional_share = 0.1

(* every (test workload, paradigm, functional) triple *)
let distinct_specs () =
  List.concat_map
    (fun (wn, _) ->
      List.concat_map
        (fun (pn, _) ->
          [ { sw = wn; sp = pn; functional = false }; { sw = wn; sp = pn; functional = true } ])
        paradigms)
    (test_workloads ())

let mix rng n =
  let wl = Array.of_list (List.map fst (test_workloads ())) in
  let ps = Array.of_list (List.map fst paradigms) in
  Array.init n (fun _ ->
      let sw = wl.(Rng.int rng (Array.length wl)) in
      let sp = ps.(Rng.int rng (Array.length ps)) in
      let functional = Rng.float rng 1.0 < functional_share in
      { sw; sp; functional })

let burst_specs () =
  List.concat_map
    (fun n ->
      let s = { sw = n; sp = "inf-s"; functional = false } in
      [ s; s ])
    burst_programs

(* The report an in-process run of [s] produces, printed as the server
   prints it (same options as [infs_run serve]'s handler). Runs are pure,
   so each distinct spec is run once and every session compared to it. *)
let direct = Hashtbl.create 256

let direct_report wl s =
  let k = spec_key s in
  match Hashtbl.find_opt direct k with
  | Some r -> r
  | None ->
    let r =
      match (List.assoc_opt s.sw wl, List.assoc_opt s.sp paradigms) with
      | Some w, Some p -> (
        let options = { batch_options with functional = s.functional } in
        match run_engine options { key = k; w; p } with
        | Ok r -> Ok (Json.to_string (R.to_json r))
        | Error e -> Error e)
      | _ -> Error ("unknown spec " ^ k)
    in
    Hashtbl.replace direct k r;
    r

(* functional runs must match the interpreter within the engine suite's
   tolerance *)
let functional_tolerance = 1e-3

(* Check served reports: one exemplar per distinct spec, byte-equal to a
   direct run; functional reports checked against the interpreter. *)
let check_served exemplars =
  let wl = test_workloads () in
  Hashtbl.iter
    (fun k (s, line) ->
      match Json.parse line with
      | Error e -> fail (k ^ ": unparsable response: " ^ e)
      | Ok j -> (
        match Json.member "report" j with
        | None -> fail (k ^ ": response without report")
        | Some rep -> (
          let served = Json.to_string rep in
          (match direct_report wl s with
          | Error e -> fail (k ^ ": direct run failed: " ^ e)
          | Ok want -> if want <> served then fail (k ^ ": served report differs from direct run"));
          if s.functional then
            match Option.bind (Json.member "max_err" rep) Json.to_num with
            | Some e when e <= functional_tolerance -> ()
            | Some e -> fail (Printf.sprintf "%s: max error %g" k e)
            | None -> fail (k ^ ": functional report not checked"))))
    exemplars
