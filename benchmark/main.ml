(* End-to-end and per-layer benchmark of the reproduction's user-facing
   work: exhaustive verification of real locks, the Section 4 adversary,
   and a campaign grid. See README.md for the workloads, metrics and how
   to read a comparison.

     main.exe --workload W --seed N --seconds S --trace 0|1
         --trace 0: samples of W until S seconds are spent; --trace 1:
         the traced run of every workload within S seconds, whichever W
         names, since per-layer names carry the workload's tag; the last
         stdout line is {"correct", "attempted", "failed", "metrics"}
     main.exe run --seed N --out results.json
         every workload, 10 samples each, interleaved round-robin in a
         seed-shuffled order
     main.exe trace --seed N --out DIR [--seconds S]
         the traced run: DIR/ledger.json plus each workload's telemetry
         as DIR/<workload>.ndjson
     main.exe compare A.json B.json
         per (workload, metric): improved / unchanged / worse / unresolved
     main.exe run --smoke
         tiny inputs; checks answers, results JSON and BENCHMARK.json

   Every sample is a fresh child process of this executable, so set-up
   time and peak memory are those of one run. [--dir D] (default
   "benchmark") is where expected/ lives; scratch files go to D/_work. *)

let die code fmt = Printf.ksprintf (fun s -> prerr_endline ("benchmark: " ^ s); exit code) fmt

(* --- the end-to-end catalogue ------------------------------------------- *)

type e2e = {
  ename : string;
  eunit : string;
  bound : float;  (** share of the baseline median a change may worsen it by *)
  floor : float;  (** absolute change below which it never counts as worse *)
}

(* The bounds are what the shared 2-vCPU host allows: between runs of the
   same code, the quartile spread of per-run medians reaches 20% on the
   times even after the host-speed correction, and 5% on the campaign's
   peak memory, whose two jobs overlap differently in every sample
   (README.md, "Bounds"). Where a set's own quartile spread is wider than
   a bound, [compare] reads the row as unresolved, not as a change.
   Spawning a process alone takes about 1.5 ms, hence set-up's floor. *)
let end_to_end =
  [ { ename = "wall_s"; eunit = "s"; bound = 0.25; floor = 0.0 };
    { ename = "cpu_s"; eunit = "s"; bound = 0.25; floor = 0.0 };
    { ename = "peak_rss_mb"; eunit = "MB"; bound = 0.10; floor = 0.0 };
    { ename = "setup_s"; eunit = "s"; bound = 0.25; floor = 0.005 } ]

(* --- child processes ------------------------------------------------------ *)

let work_dir dir =
  let w = Filename.concat dir "_work" in
  if not (Sys.file_exists w) then Sys.mkdir w 0o755;
  w

let print_json j = print_endline (Obs.Json.to_string j)

(* One metric in the result line: {"value": v, "unit": u}. *)
let metric_json unit_ v = Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String unit_) ]

(* Run this executable with [args]; returns the spawn time and the JSON
   object on the child's last stdout line. A child that dies or prints no
   result stops the benchmark: there is no number to report. *)
let spawn args =
  let exe = Sys.executable_name in
  let t0 = Unix.gettimeofday () in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let rec last acc = match input_line ic with l -> last (Some l) | exception End_of_file -> acc in
  let line = last None in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some l -> (
      match Obs.Json.parse l with
      | Ok j -> (t0, j)
      | Error e -> die 1 "child %s: bad result line: %s" (String.concat " " args) e)
  | _ -> die 1 "child %s failed" (String.concat " " args)

let child_flags ~dir ~smoke = [ "--dir"; dir ] @ if smoke then [ "--smoke" ] else []

(* One sample: set up, run, check. [ready] is the wall-clock instant the
   inputs were ready, so the parent's spawn time gives set-up time. *)
let sample_child w ~dir ~smoke =
  let inputs = Workloads.setup w ~smoke ~work:(work_dir dir) in
  let ready = Unix.gettimeofday () in
  let cpu0 = Stats.cpu_seconds () in
  let outcome = Workloads.run inputs in
  let wall = Unix.gettimeofday () -. ready in
  let cpu = Stats.cpu_seconds () -. cpu0 in
  let ok = Workloads.check ~dir ~smoke w outcome in
  print_json
    (Obs.Json.Obj
       [ ("ready", Obs.Json.Float ready);
         ("wall_s", Obs.Json.Float wall);
         ("cpu_s", Obs.Json.Float cpu);
         ("peak_rss_mb", Obs.Json.Float (Stats.peak_rss_mb ()));
         ("ok", Obs.Json.Bool ok) ])

let layers_child w ~seed ~dir ~smoke ~events =
  let r = Layers.run w ~seed ~smoke ~dir ~work:(work_dir dir) in
  (match events with
  | Some path ->
      Stats.write_file path
        (String.concat "" (List.map (fun e -> Obs.Event.to_ndjson_line e ^ "\n") r.Layers.events))
  | None -> ());
  print_json
    (Obs.Json.Obj
       [ ("wall_s", Obs.Json.Float r.Layers.wall_s);
         ("checked", Obs.Json.Int r.Layers.checked);
         ("ok", Obs.Json.Bool r.Layers.ok);
         ( "metrics",
           Obs.Json.List
             (List.map
                (fun (m : Layers.metric) ->
                  Obs.Json.Obj
                    [ ("name", Obs.Json.String m.Layers.name);
                      ("unit", Obs.Json.String m.Layers.unit_);
                      ("value", Obs.Json.Float m.Layers.value) ])
                r.Layers.metrics) ) ])

(* --- samples ---------------------------------------------------------------- *)

type sample = { setup_s : float; wall_s : float; cpu_s : float; peak_rss_mb : float; ok : bool }

let field j name = Stats.to_float (Stats.member_exn name j)

let take_sample w ~dir ~smoke =
  let t0, j = spawn ([ "sample"; w.Workloads.name ] @ child_flags ~dir ~smoke) in
  {
    setup_s = field j "ready" -. t0;
    wall_s = field j "wall_s";
    cpu_s = field j "cpu_s";
    peak_rss_mb = field j "peak_rss_mb";
    ok = Stats.member_exn "ok" j = Obs.Json.Bool true;
  }

(* Samples one round at a time, a round being one sample of each of
   [workloads] in order, while [more ~rounds ~longest] holds ([longest]
   is the longest round so far, in seconds). The host-speed loop runs
   before the first sample and after each one; a sample is paired with
   the mean of the two runs around it. Returns the pairs per workload, in
   the order taken. *)
let collect ~take workloads ~more =
  let rec go acc before rounds longest =
    if not (more ~rounds ~longest) then acc
    else
      let t0 = Unix.gettimeofday () in
      let acc, before =
        List.fold_left
          (fun (acc, before) w ->
            let s = take w in
            let after = Stats.calibration_s () in
            ((w, ((before +. after) /. 2.0, s)) :: acc, after))
          (acc, before) workloads
      in
      go acc before (rounds + 1) (max longest (Unix.gettimeofday () -. t0))
  in
  let taken = List.rev (go [] (Stats.calibration_s ()) 0 0.0) in
  let of_w w = List.filter_map (fun (v, p) -> if v == w then Some p else None) taken in
  List.map (fun w -> (w, of_w w)) workloads

(* [more] for [collect]: at least one round, then rounds while the next
   one still ends within [seconds] of [start]. *)
let within ~start ~seconds ~rounds ~longest =
  rounds = 0 || Unix.gettimeofday () -. start +. longest <= seconds

(* A sample's times at reference host speed (see Stats.calibration_s). *)
let at_reference_speed (calibration, s) =
  let k = Stats.speed_scale calibration in
  { s with setup_s = k *. s.setup_s; wall_s = k *. s.wall_s; cpu_s = k *. s.cpu_s }

let median_scale pairs = Stats.median (List.map (fun (c, _) -> Stats.speed_scale c) pairs)

let values samples = function
  | "wall_s" -> List.map (fun s -> s.wall_s) samples
  | "cpu_s" -> List.map (fun s -> s.cpu_s) samples
  | "peak_rss_mb" -> List.map (fun s -> s.peak_rss_mb) samples
  | "setup_s" -> List.map (fun s -> s.setup_s) samples
  | m -> invalid_arg m

(* --- header and guards -------------------------------------------------- *)

let nproc () = Domain.recommended_domain_count ()

(* Multi-domain numbers measured on fewer cores than domains are not the
   numbers this benchmark defines; refuse rather than clamp. *)
let require_cores () =
  let cores = nproc () in
  if cores < Workloads.max_threads then
    die 2 "nproc %d is below the %d threads a workload uses; no numbers reported" cores
      Workloads.max_threads

let first_line cmd =
  try
    let ic = Unix.open_process_in cmd in
    let l = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if l = "" then "unknown" else l
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

let header ~seed ~samples =
  Obs.Json.Obj
    [ ("nproc", Obs.Json.Int (nproc ()));
      ("ocaml", Obs.Json.String Sys.ocaml_version);
      ("git_rev", Obs.Json.String (first_line "git rev-parse HEAD 2>/dev/null"));
      ("seed", Obs.Json.Int seed);
      ("samples", Obs.Json.Int samples);
      ( "loadavg",
        Obs.Json.String
          (try In_channel.with_open_text "/proc/loadavg" input_line
           with Sys_error _ | End_of_file -> "unknown") ) ]

(* --- one workload for a fixed time: the BENCHMARK.json interface -------- *)

(* Samples of [w] until [seconds] are spent (at least one); each metric
   is the median over the samples, times at reference host speed. *)
let measure w ~seconds ~dir =
  let start = Unix.gettimeofday () in
  let pairs =
    List.assq w (collect ~take:(take_sample ~dir ~smoke:false) [ w ] ~more:(within ~start ~seconds))
  in
  prerr_endline (Printf.sprintf "benchmark: median host speed scale %.4f" (median_scale pairs));
  let samples = List.map at_reference_speed pairs in
  let failed = List.length (List.filter (fun s -> not s.ok) samples) in
  Obs.Json.Obj
    [ ("correct", Obs.Json.Bool (failed = 0));
      ("attempted", Obs.Json.Int (List.length samples));
      ("failed", Obs.Json.Int failed);
      ( "metrics",
        Obs.Json.Obj
          (List.map
             (fun e -> (e.ename, metric_json e.eunit (Stats.median (values samples e.ename))))
             end_to_end) ) ]

(* --- the traced run --------------------------------------------------------- *)

type ledger = { metrics : (string * string * float) list; attempted : int; failed : int }

(* Every workload's layers, each traced in its own process; then untraced
   samples, round-robin while [seconds] from the start allow (at least
   one each), whose median wall time is the tracing overhead's baseline.
   Per-layer names carry the workload tag, so one traced run yields the
   whole ledger. *)
let trace_all ~seed ~dir ~smoke ~seconds ~events_dir =
  let start = Unix.gettimeofday () in
  let traced =
    List.map
      (fun w ->
        let events =
          match events_dir with
          | Some d -> [ "--events"; Filename.concat d (w.Workloads.name ^ ".ndjson") ]
          | None -> []
        in
        snd
          (spawn
             ([ "layers"; w.Workloads.name; "--seed"; string_of_int seed ]
             @ child_flags ~dir ~smoke @ events)))
      Workloads.all
  in
  let plain = collect ~take:(take_sample ~dir ~smoke) Workloads.all ~more:(within ~start ~seconds) in
  List.fold_left2
    (fun acc (w, pairs) j ->
      let plain = List.map snd pairs in
      let plain_wall = Stats.median (List.map (fun s -> s.wall_s) plain) in
      let rows =
        List.map
          (fun m ->
            ( Stats.to_string (Stats.member_exn "name" m),
              Stats.to_string (Stats.member_exn "unit" m),
              field m "value" ))
          (Stats.to_list (Stats.member_exn "metrics" j))
      in
      let overhead = 100.0 *. (field j "wall_s" -. plain_wall) /. plain_wall in
      let checked = int_of_float (field j "checked") in
      let bad =
        List.length (List.filter (fun s -> not s.ok) plain)
        + if Stats.member_exn "ok" j = Obs.Json.Bool true then 0 else 1
      in
      {
        metrics = acc.metrics @ rows @ [ (w.Workloads.tag ^ ".trace_overhead_pct", "%", overhead) ];
        attempted = acc.attempted + List.length plain + checked;
        failed = acc.failed + bad;
      })
    { metrics = []; attempted = 0; failed = 0 }
    plain traced

let ledger_json l =
  Obs.Json.Obj
    [ ("correct", Obs.Json.Bool (l.failed = 0));
      ("attempted", Obs.Json.Int l.attempted);
      ("failed", Obs.Json.Int l.failed);
      ( "metrics",
        Obs.Json.Obj
          (List.map (fun (n, u, v) -> (n, metric_json u v)) l.metrics) ) ]

let print_ledger l =
  List.iter (fun (n, u, v) -> Printf.printf "  %-44s %14.4f %s\n" n v u) l.metrics

(* --- a full set: every workload, interleaved ------------------------------ *)

let shuffle ~seed l =
  let rng = Random.State.make [| seed |] in
  List.map snd (List.sort compare (List.map (fun x -> (Random.State.bits rng, x)) l))

let stats_json unit_ vs =
  let q1, med, q3 = Stats.quartiles vs in
  Obs.Json.Obj
    [ ("unit", Obs.Json.String unit_);
      ("median", Obs.Json.Float med);
      ("q1", Obs.Json.Float q1);
      ("q3", Obs.Json.Float q3);
      ("n", Obs.Json.Int (List.length vs));
      ("samples", Obs.Json.List (List.map (fun v -> Obs.Json.Float v) vs)) ]

(* [samples] rounds in a seed-shuffled order; times at reference host
   speed. Returns the median speed scale with the per-workload results. *)
let run_set ~seed ~samples ~dir ~smoke =
  let taken =
    collect ~take:(take_sample ~dir ~smoke) (shuffle ~seed Workloads.all)
      ~more:(fun ~rounds ~longest:_ -> rounds < samples)
  in
  let result w =
    let ss = List.map at_reference_speed (List.assq w taken) in
    let failed = List.length (List.filter (fun s -> not s.ok) ss) in
    Obs.Json.Obj
      [ ("name", Obs.Json.String w.Workloads.name);
        ("attempted", Obs.Json.Int (List.length ss));
        ("failed", Obs.Json.Int failed);
        ( "metrics",
          Obs.Json.Obj
            (List.map (fun e -> (e.ename, stats_json e.eunit (values ss e.ename))) end_to_end
            @ [ ( "fail_rate",
                  Obs.Json.Obj
                    [ ("unit", Obs.Json.String "share");
                      ( "median",
                        Obs.Json.Float (float_of_int failed /. float_of_int (List.length ss)) ) ] )
              ]) ) ]
  in
  (median_scale (List.concat_map snd taken), List.map result Workloads.all)

let print_set workloads =
  List.iter
    (fun wj ->
      Printf.printf "%s  (%d samples, %d failed)\n"
        (Stats.to_string (Stats.member_exn "name" wj))
        (int_of_float (field wj "attempted"))
        (int_of_float (field wj "failed"));
      List.iter
        (fun (name, m) ->
          let u = Stats.to_string (Stats.member_exn "unit" m) in
          match Obs.Json.member "q1" m with
          | Some q1 ->
              Printf.printf "  %-12s %12.4f %-5s q1 %.4f  q3 %.4f  n %d\n" name (field m "median") u
                (Stats.to_float q1) (field m "q3") (int_of_float (field m "n"))
          | None -> Printf.printf "  %-12s %12.4f %s\n" name (field m "median") u)
        (Stats.to_obj (Stats.member_exn "metrics" wj)))
    workloads

(* --- smoke checks --------------------------------------------------------- *)

(* The catalogue in BENCHMARK.json must name exactly what this program
   measures: the workloads, the end-to-end metrics with their bounds, and
   every per-layer metric the traced run emits. *)
let check_catalogue ~dir (l : ledger) =
  let spec = Stats.parse_json_file (Filename.concat (Filename.concat dir Filename.parent_dir_name) "BENCHMARK.json") in
  let entries k = Stats.to_list (Stats.member_exn k spec) in
  let name j = Stats.to_string (Stats.member_exn "name" j) in
  let unit_ j = Stats.to_string (Stats.member_exn "unit" j) in
  let sorted l = List.sort compare l in
  let problems = ref [] in
  let expect what ok = if not ok then problems := what :: !problems in
  expect "workload names"
    (sorted (List.map name (entries "workloads"))
    = sorted (List.map (fun w -> w.Workloads.name) Workloads.all));
  expect "end_to_end metrics"
    (sorted
       (List.map
          (fun j -> (name j, unit_ j, field j "bound", Stats.member_exn "better" j))
          (entries "end_to_end"))
    = sorted (List.map (fun e -> (e.ename, e.eunit, e.bound, Obs.Json.String "lower")) end_to_end));
  expect "per_layer metrics"
    (sorted (List.map (fun j -> (name j, unit_ j)) (entries "per_layer"))
    = sorted (List.map (fun (n, u, _) -> (n, u)) l.metrics));
  List.iter (fun p -> prerr_endline ("benchmark: BENCHMARK.json disagrees on " ^ p)) !problems;
  !problems = []

let smoke_run ~seed ~dir =
  let _, workloads = run_set ~seed ~samples:1 ~dir ~smoke:true in
  let out = Filename.concat (work_dir dir) "smoke-results.json" in
  Stats.write_file out (Obs.Json.to_string (Obs.Json.Obj [ ("workloads", Obs.Json.List workloads) ]));
  (* the results file must parse back with every metric present *)
  let parsed = Stats.to_list (Stats.member_exn "workloads" (Stats.parse_json_file out)) in
  let complete =
    List.length parsed = List.length Workloads.all
    && List.for_all
         (fun wj ->
           let ms = Stats.member_exn "metrics" wj in
           List.for_all
             (fun n -> Obs.Json.member n ms <> None)
             ("fail_rate" :: List.map (fun e -> e.ename) end_to_end))
         parsed
  in
  let failed = List.fold_left (fun a wj -> a + int_of_float (field wj "failed")) 0 parsed in
  let l = trace_all ~seed ~dir ~smoke:true ~seconds:0.0 ~events_dir:None in
  let catalogue = check_catalogue ~dir l in
  Printf.printf "benchmark smoke: %d workloads, %d wrong answers, results %s, %d per-layer metrics\n"
    (List.length parsed) (failed + l.failed)
    (if complete then "complete" else "INCOMPLETE")
    (List.length l.metrics);
  if failed > 0 || l.failed > 0 || (not complete) || not catalogue then exit 1

(* --- compare ---------------------------------------------------------------- *)

(* Baseline A against change B, per (workload, metric). The allowed change
   is the bound times the median, or the floor if larger. A row is worse
   when B's median exceeds A's by more than that; improved when B's median
   beats A's by more than A's quartile spread and the quartile ranges do
   not overlap; unresolved when either set's quartile spread is wider than
   its allowed change, unless every sample of one side beats every sample
   of the other. *)
let classify e a b =
  let qa1, ma, qa3 = Stats.quartiles a and qb1, mb, qb3 = Stats.quartiles b in
  let allowed m = max (e.bound *. m) e.floor in
  let max_l = List.fold_left max neg_infinity and min_l = List.fold_left min infinity in
  let b_wins = max_l b < min_l a and a_wins = max_l a < min_l b in
  if (qa3 -. qa1 > allowed ma || qb3 -. qb1 > allowed mb) && not (a_wins || b_wins) then
    "unresolved"
  else if mb -. ma > allowed ma then "worse"
  else if b_wins || (ma -. mb > qa3 -. qa1 && qb3 < qa1) then "improved"
  else "unchanged"

let compare_files fa fb =
  let load f = Stats.to_list (Stats.member_exn "workloads" (Stats.parse_json_file f)) in
  let a = load fa and b = load fb in
  let samples wj m = List.map Stats.to_float (Stats.to_list (Stats.member_exn "samples" (Stats.member_exn m (Stats.member_exn "metrics" wj)))) in
  let worse = ref 0 in
  Printf.printf "%-30s %-12s %12s %12s %8s  %s\n" "workload" "metric" "A median" "B median" "change" "verdict";
  List.iter
    (fun wa ->
      let name = Stats.to_string (Stats.member_exn "name" wa) in
      match List.find_opt (fun wb -> Stats.member_exn "name" wb = Obs.Json.String name) b with
      | None -> Printf.printf "%-30s missing from %s\n" name fb
      | Some wb ->
          List.iter
            (fun e ->
              let sa = samples wa e.ename and sb = samples wb e.ename in
              let v = classify e sa sb in
              if v = "worse" then incr worse;
              let ma = Stats.median sa and mb = Stats.median sb in
              Printf.printf "%-30s %-12s %12.4f %12.4f %+7.1f%%  %s\n" name e.ename ma mb
                (100.0 *. (mb -. ma) /. ma) v)
            end_to_end;
          let rate wj = field (Stats.member_exn "fail_rate" (Stats.member_exn "metrics" wj)) "median" in
          let ra = rate wa and rb = rate wb in
          Printf.printf "%-30s %-12s %12.4f %12.4f %8s  %s\n" name "fail_rate" ra rb ""
            (if rb > ra then (incr worse; "worse") else if rb < ra then "improved" else "unchanged"))
    a;
  if !worse > 0 then exit 1

(* --- command line --------------------------------------------------------- *)

let usage () =
  die 2
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1 | run --seed N --out F \
     | run --smoke | trace --seed N --out DIR [--seconds S] | compare A.json B.json"

let () =
  let rec parse pos flags smoke = function
    | [] -> (List.rev pos, flags, smoke)
    | "--smoke" :: rest -> parse pos flags true rest
    | f :: v :: rest when String.length f > 2 && String.sub f 0 2 = "--" ->
        parse pos ((f, v) :: flags) smoke rest
    | [ f ] when String.length f > 2 && String.sub f 0 2 = "--" -> usage ()
    | p :: rest -> parse (p :: pos) flags smoke rest
  in
  let pos, flags, smoke = parse [] [] false (List.tl (Array.to_list Sys.argv)) in
  let flag ?default f =
    match (List.assoc_opt f flags, default) with
    | Some v, _ -> v
    | None, Some d -> d
    | None, None -> usage ()
  in
  let int_flag ?default f =
    match int_of_string_opt (flag ?default f) with Some i -> i | None -> usage ()
  in
  let dir = flag ~default:"benchmark" "--dir" in
  let workload name = match Workloads.find name with Some w -> w | None -> die 2 "unknown workload %S" name in
  match pos with
  | [ "sample"; name ] -> sample_child (workload name) ~dir ~smoke
  | [ "layers"; name ] ->
      layers_child (workload name) ~seed:(int_flag "--seed") ~dir ~smoke
        ~events:(List.assoc_opt "--events" flags)
  | [ "compare"; a; b ] -> compare_files a b
  | [ "run" ] when smoke -> smoke_run ~seed:(int_flag ~default:"1" "--seed") ~dir
  | [ "run" ] ->
      require_cores ();
      let seed = int_flag "--seed" and out = flag "--out" in
      let samples = 10 in
      let h = header ~seed ~samples in
      let scale, workloads = run_set ~seed ~samples ~dir ~smoke:false in
      Stats.write_file out
        (Obs.Json.to_string
           (Obs.Json.Obj
              [ ("header", h);
                ("speed_scale", Obs.Json.Float scale);
                ("workloads", Obs.Json.List workloads) ]));
      print_endline (Obs.Json.to_string h);
      Printf.printf "times at reference host speed: raw times x %.4f (median)\n" scale;
      print_set workloads;
      Printf.printf "results -> %s\n" out
  | [ "trace" ] ->
      require_cores ();
      let seed = int_flag "--seed" and out = flag "--out" in
      let seconds = float_of_int (int_flag ~default:"30" "--seconds") in
      if not (Sys.file_exists out) then Sys.mkdir out 0o755;
      let l = trace_all ~seed ~dir ~smoke:false ~seconds ~events_dir:(Some out) in
      Stats.write_file (Filename.concat out "ledger.json")
        (Obs.Json.to_string
           (Obs.Json.Obj [ ("header", header ~seed ~samples:1); ("ledger", ledger_json l) ]));
      print_ledger l;
      Printf.printf "ledger -> %s\n" (Filename.concat out "ledger.json")
  | [] ->
      require_cores ();
      let w = workload (flag "--workload") in
      let seed = int_flag "--seed" and seconds = float_of_int (int_flag "--seconds") in
      prerr_endline ("benchmark: " ^ Obs.Json.to_string (header ~seed ~samples:0));
      (match flag "--trace" with
      | "0" -> print_json (measure w ~seconds ~dir)
      | "1" -> print_json (ledger_json (trace_all ~seed ~dir ~smoke:false ~seconds ~events_dir:None))
      | _ -> usage ())
  | _ -> usage ()
