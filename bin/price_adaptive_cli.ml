(* Command-line front end over the reproduction.

     dune exec bin/price_adaptive_cli.exe -- <command> ...

   Commands:
     list                          the lock zoo
     lock <name> [...]             run a lock, print its cost profile
     adversary <name> [...]        run the lower-bound construction
     bounds [...]                  Theorem 1 forced-fence computation
     verify <name> [...]           exhaustive schedule exploration (small n)
     campaign [...]                cached batch verification over a scenario
                                   grid, with adaptive frontier bracketing
     replay <name> FILE [...]      replay a saved schedule file
     stats <name> FILE [...]       replay a schedule, print the cost breakdown
     trace <name> -o FILE [...]    save an execution trace artifact
     analyze FILE                  metrics + IN-set verdict of a saved trace
     litmus [--pso]                store-buffering litmus

   Exit codes for verify: 0 verified, 1 violation found, 2 bad input,
   3 partial (a budget stopped the search with no violation found).

   Telemetry: verify and adversary accept --obs FILE.ndjson (stream
   events), --chrome-trace FILE.json (chrome://tracing / Perfetto) and
   --obs-console (summary table on stderr). verify additionally takes
   --progress (a live line of the nodes searched and the rate). *)

open Cmdliner

let model_conv =
  let parse = function
    | "dsm" -> Ok Tsim.Config.Dsm
    | "cc-wt" | "wt" -> Ok Tsim.Config.Cc_wt
    | "cc-wb" | "wb" -> Ok Tsim.Config.Cc_wb
    | s -> Error (`Msg (Printf.sprintf "unknown memory model %S" s))
  in
  let print fmt m =
    Format.pp_print_string fmt (Tsim.Config.mem_model_name m)
  in
  Arg.conv (parse, print)

let crash_semantics_conv =
  let parse = function
    | "drop-buffer" | "drop" -> Ok Tsim.Config.Drop_buffer
    | "flush-buffer" | "flush" -> Ok Tsim.Config.Flush_buffer
    | "atomic-prefix" | "prefix" -> Ok Tsim.Config.Atomic_prefix
    | s -> Error (`Msg (Printf.sprintf "unknown crash semantics %S" s))
  in
  let print fmt c =
    Format.pp_print_string fmt (Tsim.Config.crash_semantics_name c)
  in
  Arg.conv (parse, print)

let find_lock name =
  match Locks.Zoo.find name with
  | Some fam -> Ok fam
  | None ->
      Error
        (Printf.sprintf "unknown lock %S; try one of: %s" name
           (String.concat ", "
              (List.map
                 (fun f -> f.Locks.Lock_intf.family_name)
                 (Locks.Zoo.all @ Locks.Zoo.two_process
                @ Locks.Zoo.recoverable @ Locks.Zoo.abortable))))

(* Exit code 2 with a one-line diagnostic: the contract for bad input
   (unknown lock names, malformed schedule files) on verify/replay. *)
let die2 fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

(* Workers beyond the host's cores only spin waiting for work, and past
   the runtime's domain limit they cannot start at all, so [verify
   --domains] and [campaign --jobs] run at most
   [Domain.recommended_domain_count ()] workers and say so on stderr when
   they cut the request. The clamp lives here rather than in
   [Explore.explore] or [Driver.run]: the differential test suites run
   more workers than cores on purpose, to exercise steals. *)
let clamp_workers flag k =
  let cap = Domain.recommended_domain_count () in
  if k <= cap then k
  else begin
    Printf.eprintf "note: %s %d clamped to %d, the host's domain count\n%!"
      flag k cap;
    cap
  end

(* Budgets and worker counts: an integer of at least 1, or exit 2. A
   node or time budget of 0 stops a search before its first state and
   reports it PARTIAL; a spin fuel of 0 raises at every spin before its
   first read, so a search would prune each branch there and report
   VERIFIED for a space it never explored. *)
let positive_int =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some k when k >= 1 -> Ok k
        | _ -> Error (`Msg (Printf.sprintf "%S is not an integer >= 1" s))),
      Format.pp_print_int )

(* --spin-fuel, shared by verify, replay, stats and campaign *)
let spin_fuel ?(doc = "busy-wait bound, at least 1") () =
  Arg.(value & opt positive_int 6 & info [ "spin-fuel" ] ~docv:"N" ~doc)

(* --- telemetry options (shared by verify and adversary) ----------------- *)

let obs_term =
  let ndjson =
    Arg.(
      value & opt (some string) None
      & info [ "obs" ] ~docv:"FILE"
          ~doc:"stream telemetry events to $(docv) as NDJSON")
  in
  let chrome =
    Arg.(
      value & opt (some string) None
      & info [ "chrome-trace" ] ~docv:"FILE"
          ~doc:
            "write a Chrome trace-event JSON file to $(docv), loadable in \
             chrome://tracing or Perfetto")
  in
  let console =
    Arg.(
      value & flag
      & info [ "obs-console" ]
          ~doc:"print a telemetry summary table to stderr on exit")
  in
  Term.(
    const (fun ndjson chrome console -> (ndjson, chrome, console))
    $ ndjson $ chrome $ console)

(* Build a hub from the options, run [f] with it, and always flush/close
   the sinks and their files — verdict exits go through the returned
   code, not mid-stream [exit], so traces are complete even on
   violations. [extra] lets a command attach its own sinks (verify's
   --progress line) on top of the shared telemetry options. *)
let with_obs ?(extra = []) (ndjson, chrome, console) f =
  let chans = ref [] in
  let file p =
    let oc = open_out p in
    chans := oc :: !chans;
    oc
  in
  let sinks =
    (match ndjson with Some p -> [ Obs.Sink.ndjson (file p) ] | None -> [])
    @ (match chrome with
      | Some p -> [ Obs.Sink.chrome_trace (file p) ]
      | None -> [])
    @ (if console then [ Obs.Sink.console () ] else [])
    @ extra
  in
  if sinks = [] then f Obs.Telemetry.null
  else
    let obs = Obs.Telemetry.create ~sinks () in
    Fun.protect
      ~finally:(fun () ->
        Obs.Telemetry.close obs;
        List.iter close_out !chans)
      (fun () -> f obs)

(* --- list -------------------------------------------------------------- *)

let list_cmd =
  let doc = "List the lock zoo and object-based mutexes." in
  let run () =
    print_endline "locks:";
    List.iter
      (fun (f : Locks.Lock_intf.family) ->
        let l = f.Locks.Lock_intf.instantiate ~n:2 in
        Printf.printf "  %-15s %s%s\n" f.Locks.Lock_intf.family_name
          (if l.Locks.Lock_intf.uses_rmw then "rmw " else "r/w ")
          (if l.Locks.Lock_intf.one_time then "(one-time)" else ""))
      Locks.Zoo.all;
    print_endline "object-based (Lemma 9):";
    List.iter
      (fun (f : Locks.Lock_intf.family) ->
        Printf.printf "  %s\n" f.Locks.Lock_intf.family_name)
      Objects.Mutex_from_object.families
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* --- lock -------------------------------------------------------------- *)

let lock_cmd =
  let doc = "Run a lock on the simulator and print its cost profile." in
  let lock_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"LOCK") in
  let n = Arg.(value & opt int 8 & info [ "n" ] ~doc:"number of processes") in
  let k =
    Arg.(value & opt (some int) None & info [ "k" ] ~doc:"contending processes")
  in
  let model =
    Arg.(value & opt model_conv Tsim.Config.Cc_wb
        & info [ "model" ] ~doc:"memory model: dsm, cc-wt, cc-wb")
  in
  let passages =
    Arg.(value & opt int 1 & info [ "passages" ] ~doc:"passages per process")
  in
  let seed =
    Arg.(value & opt (some int) None
        & info [ "seed" ] ~doc:"random schedule seed (default: round robin)")
  in
  let run name n k model passages seed =
    match find_lock name with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok fam ->
        let k = Option.value ~default:n k in
        let lock = fam.Locks.Lock_intf.instantiate ~n in
        let passages = if lock.Locks.Lock_intf.one_time then 1 else passages in
        let schedule =
          match seed with
          | None -> Locks.Harness.Rr
          | Some s -> Locks.Harness.Rand s
        in
        let _, stats =
          Locks.Harness.run_contended ~model ~max_passages:passages ~schedule
            lock ~n ~k
        in
        Printf.printf "%s  n=%d k=%d model=%s passages=%d\n"
          stats.Locks.Harness.lock_name n k
          (Tsim.Config.mem_model_name model)
          passages;
        (* the same key/value data a JSON export would carry, rendered
           through the shared table printer *)
        print_string
          (Obs.Json.pp_kv_table
             [
               ("exclusion_ok", Obs.Json.Bool stats.Locks.Harness.exclusion_ok);
               ("completed", Obs.Json.Bool stats.Locks.Harness.completed);
               ("cs_entries", Obs.Json.Int stats.Locks.Harness.cs_entries);
               ( "rmrs_per_passage_avg",
                 Obs.Json.Float stats.Locks.Harness.avg_rmrs_per_passage );
               ( "rmrs_per_passage_max",
                 Obs.Json.Int stats.Locks.Harness.max_rmrs_per_passage );
               ( "fences_per_passage_avg",
                 Obs.Json.Float stats.Locks.Harness.avg_fences_per_passage );
               ( "fences_per_passage_max",
                 Obs.Json.Int stats.Locks.Harness.max_fences_per_passage );
               ( "max_interval_contention",
                 Obs.Json.Int stats.Locks.Harness.max_interval_contention );
               ( "max_point_contention",
                 Obs.Json.Int stats.Locks.Harness.max_point_contention );
             ])
  in
  Cmd.v (Cmd.info "lock" ~doc)
    Term.(const run $ lock_arg $ n $ k $ model $ passages $ seed)

(* --- adversary ---------------------------------------------------------- *)

let adversary_cmd =
  let doc =
    "Run the lower-bound construction (Section 4) against a lock."
  in
  let lock_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"LOCK") in
  let n = Arg.(value & opt int 16 & info [ "n" ] ~doc:"number of processes") in
  let audit =
    Arg.(value & flag & info [ "audit" ] ~doc:"check IN-set invariants")
  in
  let ablate_is =
    Arg.(value & flag
        & info [ "no-independent-sets" ] ~doc:"ablate Turán selection")
  in
  let ablate_reg =
    Arg.(value & flag
        & info [ "no-regularization" ] ~doc:"ablate the regularization phase")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"print per-round details")
  in
  let run name n audit no_is no_reg verbose obs_opts =
    match find_lock name with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok fam ->
        let lock = fam.Locks.Lock_intf.instantiate ~n in
        let c, report =
          with_obs obs_opts (fun obs ->
              let c =
                Adversary.Construction.create ~audit
                  ~no_independent_sets:no_is ~no_regularization:no_reg ~obs
                  lock ~n
              in
              (c, Adversary.Construction.run ~min_act:1 c))
        in
        (if verbose then Format.printf "%a" Adversary.Report.pp_verbose report
         else Format.printf "%a" Adversary.Report.pp report);
        (match Adversary.Witness.extract c with
        | Some w -> Printf.printf "witness: %s\n" w.Adversary.Witness.detail
        | None -> print_endline "witness: none (all finished or erased)");
        if audit then begin
          let steps = List.length report.Adversary.Report.steps in
          let boundaries =
            Printf.sprintf "%d step boundar%s" steps
              (if steps = 1 then "y" else "ies")
          in
          match Adversary.Construction.audit_failures c with
          | [] ->
              Printf.printf
                "audit: IN0-IN2, IN4, IN5 and uniform fence/critical counts \
                 held at %s; IN3 not checked per step\n"
                boundaries
          | fails ->
              Printf.printf "audit: %d violations over %s\n"
                (List.length fails) boundaries;
              List.iter (fun f -> Printf.printf "  %s\n" f) fails
        end
  in
  Cmd.v (Cmd.info "adversary" ~doc)
    Term.(
      const run $ lock_arg $ n $ audit $ ablate_is $ ablate_reg $ verbose
      $ obs_term)

(* --- bounds -------------------------------------------------------------- *)

let bounds_cmd =
  let doc = "Evaluate the Theorem 1 condition and forced-fence bound." in
  let family =
    Arg.(value & opt string "linear"
        & info [ "family" ] ~doc:"adaptivity family: linear or exp")
  in
  let c = Arg.(value & opt float 1.0 & info [ "c" ] ~doc:"constant c") in
  let log2n =
    Arg.(value & opt float 1024.0 & info [ "log2n" ] ~doc:"log2 of N")
  in
  let run family c log2_n =
    let f =
      match family with
      | "exp" | "exponential" -> Bounds.Adaptivity.exponential c
      | _ -> Bounds.Adaptivity.linear c
    in
    let forced = Bounds.Theorem1.max_forced_fences ~f ~log2_n () in
    Printf.printf
      "%s, log2 N = %g\n\
       max forced fences (Theorem 1): %d\n\
       closed form: Cor.2 (1/3c)loglogN = %.2f, Cor.3 (1/c)(lllN-1) = %.2f\n"
      (Bounds.Adaptivity.name f) log2_n forced
      (Bounds.Corollaries.cor2_closed_form ~c ~log2_n)
      (Bounds.Corollaries.cor3_closed_form ~c ~log2_n)
  in
  Cmd.v (Cmd.info "bounds" ~doc) Term.(const run $ family $ c $ log2n)

(* --- trace / analyze ----------------------------------------------------- *)

let trace_cmd =
  let doc = "Run a lock and save its execution trace as a text artifact." in
  let lock_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"LOCK")
  in
  let out =
    Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE")
  in
  let n = Arg.(value & opt int 4 & info [ "n" ] ~doc:"number of processes") in
  let seed =
    Arg.(value & opt (some int) None & info [ "seed" ] ~doc:"random schedule")
  in
  let run name out n seed =
    match find_lock name with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok fam ->
        let lock = fam.Locks.Lock_intf.instantiate ~n in
        let schedule =
          match seed with
          | None -> Locks.Harness.Rr
          | Some s -> Locks.Harness.Rand s
        in
        let m, stats =
          Locks.Harness.run_contended ~model:Tsim.Config.Cc_wb ~schedule lock
            ~n ~k:n
        in
        let tr = Execution.Trace.of_machine m in
        Execution.Serial.save out tr;
        Printf.printf "%s: %d events, %d passages -> %s\n"
          stats.Locks.Harness.lock_name (Execution.Trace.length tr)
          stats.Locks.Harness.passages out
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const run $ lock_arg $ out $ n $ seed)

let analyze_cmd =
  let doc = "Analyze a saved trace: metrics, Act/Fin sets, IN-set verdict." in
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let run file =
    let tr = Execution.Serial.load file in
    Printf.printf "%d events, total contention %d\n"
      (Execution.Trace.length tr)
      (Execution.Trace.total_contention tr);
    let act = Execution.Trace.active tr in
    let fin = Execution.Trace.finished tr in
    Format.printf "Act = %a, Fin = %a@." Tsim.Ids.Pidset.pp act
      Tsim.Ids.Pidset.pp fin;
    Format.printf "%a" Execution.Metrics.pp (Execution.Metrics.compute tr);
    let v = Analysis.Inset.check_regular ~in3:false tr in
    if v.Analysis.Inset.ok then
      print_endline "Act(E) is an IN-set: the execution is regular"
    else begin
      print_endline "execution is not regular:";
      List.iter
        (fun viol -> Format.printf "  %a@." Analysis.Inset.pp_violation viol)
        v.Analysis.Inset.violations
    end
  in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ file)

let show_cmd =
  let doc = "Render a saved trace as an ASCII swimlane diagram." in
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let limit =
    Arg.(value & opt int 200 & info [ "limit" ] ~doc:"max events to render")
  in
  let run file limit =
    Execution.Render.print ~limit (Execution.Serial.load file)
  in
  Cmd.v (Cmd.info "show" ~doc) Term.(const run $ file $ limit)

(* --- verify -------------------------------------------------------------- *)

let verify_cmd =
  let doc =
    "Exhaustively explore every schedule of a lock at small n (bounded \
     model checking)."
  in
  let lock_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"LOCK")
  in
  let n = Arg.(value & opt int 2 & info [ "n" ] ~doc:"number of processes") in
  let max_nodes =
    Arg.(
      value & opt positive_int 2_000_000
      & info [ "max-nodes" ] ~doc:"node budget, at least 1")
  in
  let domains =
    Arg.(
      value & opt positive_int 1
      & info [ "domains" ]
          ~doc:
            "parallel search domains (one shared fingerprint store, \
             work-stealing load balancing); at most the host's \
             recommended domain count, with a note on stderr when cut")
  in
  let store =
    let store_conv =
      Arg.enum [ ("exact", `Exact); ("bitstate", `Bitstate) ]
    in
    Arg.(
      value & opt store_conv `Exact
      & info [ "store" ]
          ~doc:
            "seen-state memory policy: exact (every state stored, the \
             default; the store starts at 4,096 slots and doubles as it \
             fills, with no cap) or bitstate (SPIN-style supertrace \
             hashing — fixed memory, verdicts carry a measured omission \
             probability)")
  in
  let store_bits =
    Arg.(
      value & opt int 26
      & info [ "store-bits" ]
          ~doc:
            "bitstate mode: log2 of the bit array size, 10-36 (26 = 8 \
             MiB)")
  in
  let store_hashes =
    Arg.(
      value & opt int 3
      & info [ "store-hashes" ]
          ~doc:"bitstate mode: hash functions per state (1-8, default 3)")
  in
  let no_por =
    Arg.(
      value & flag
      & info [ "no-por" ]
          ~doc:
            "disable the partial-order reduction (explore every \
             interleaving; same verdicts, more states)")
  in
  let save_schedule =
    Arg.(
      value & opt (some string) None
      & info [ "save-schedule" ] ~docv:"FILE"
          ~doc:
            "write the first violating schedule to FILE (replayable with \
             the replay command)")
  in
  let max_crashes =
    Arg.(
      value & opt int 0
      & info [ "max-crashes" ]
          ~doc:"crash faults the adversary may inject (default 0)")
  in
  let max_aborts =
    Arg.(
      value & opt int 0
      & info [ "max-aborts" ]
          ~doc:
            "abort faults the adversary may inject at declared wait points \
             (default 0; requires a lock with an abort cleanup section)")
  in
  let max_millis =
    Arg.(
      value & opt (some positive_int) None
      & info [ "max-millis" ]
          ~doc:"wall-clock budget in milliseconds, at least 1")
  in
  let crash_semantics =
    Arg.(
      value & opt crash_semantics_conv Tsim.Config.Drop_buffer
      & info [ "crash-semantics" ]
          ~doc:
            "write-buffer fate on crash: drop-buffer, flush-buffer, or \
             atomic-prefix")
  in
  let search_stats =
    Arg.(
      value & flag
      & info [ "search-stats" ]
          ~doc:
            "print search-internals tallies (dedup hits, sleep-set and \
             ample-set prunes, fingerprint-store occupancy, per-domain \
             nodes, steals, the store's final size in slots (exact) or \
             bits (bitstate), bitstate omission probability, journal \
             depth). The exact store's size can differ between two runs \
             of one binary on one search: fingerprints mix in closure \
             code addresses, which move from run to run, so the states \
             fill the store's shards differently")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "print a live progress line (~1 Hz): `search: N nodes | R \
             nodes/s', the nodes searched so far and the current rate; \
             the last line's N is the final state count. Rewrites in \
             place when stdout is a TTY, appends log lines otherwise")
  in
  let run name n max_nodes spin_fuel domains no_por save_schedule max_crashes
      max_aborts max_millis crash_semantics search_stats store store_bits
      store_hashes progress obs_opts =
    let domains = clamp_workers "--domains" domains in
    if max_crashes < 0 then die2 "--max-crashes must be >= 0";
    if max_aborts < 0 then die2 "--max-aborts must be >= 0";
    let store_mode =
      (* the record update below bypasses Config.make's validation, so
         check the ranges it would enforce here *)
      match store with
      | `Exact -> Tsim.Config.Store_exact
      | `Bitstate ->
          if store_bits < 10 || store_bits > 36 then
            die2 "--store-bits must be in [10, 36] for bitstate";
          if store_hashes < 1 || store_hashes > 8 then
            die2 "--store-hashes must be in [1, 8]";
          Tsim.Config.Store_bitstate
            { log2_bits = store_bits; hashes = store_hashes }
    in
    match find_lock name with
    | Error e -> die2 "%s" e
    | Ok fam ->
        let lock = fam.Locks.Lock_intf.instantiate ~n in
        (if max_aborts > 0 && lock.Locks.Lock_intf.abort = None then
           die2 "%s has no abort cleanup section; try one of: %s"
             lock.Locks.Lock_intf.name
             (String.concat ", "
                (List.map
                   (fun f -> f.Locks.Lock_intf.family_name)
                   Locks.Zoo.abortable)));
        let cfg =
          Locks.Harness.config_of_lock ~model:Tsim.Config.Cc_wb
            ~crash_semantics lock ~n
        in
        let cfg = { cfg with Tsim.Config.store = store_mode } in
        (* ctrl-C stops the search at the next budget poll: the explorer
           returns normally with a typed `Aborts partial verdict, so the
           stats below still print and the obs sinks still flush. *)
        let stop = Atomic.make false in
        Sys.set_signal Sys.sigint
          (Sys.Signal_handle (fun _ -> Atomic.set stop true));
        let extra =
          if progress then
            [ Obs.Sink.progress ~tty:(Unix.isatty Unix.stdout) () ]
          else []
        in
        let r =
          with_obs ~extra obs_opts (fun obs ->
              Mcheck.Explore.explore ~max_nodes ~spin_fuel ~domains
                ~por:(not no_por) ~max_crashes ~max_aborts ?max_millis ~stop
                ~obs cfg)
        in
        Printf.printf "%s n=%d%s%s%s: %d states, max depth %d\n"
          lock.Locks.Lock_intf.name n
          (if max_crashes > 0 then
             Printf.sprintf " crashes<=%d (%s)" max_crashes
               (Tsim.Config.crash_semantics_name crash_semantics)
           else "")
          (if max_aborts > 0 then Printf.sprintf " aborts<=%d" max_aborts
           else "")
          (if no_por then " (no por)" else "")
          r.Mcheck.Explore.nodes r.Mcheck.Explore.max_depth;
        (if search_stats then
           let s = r.Mcheck.Explore.stats in
           Printf.printf
             "search: dedup hits %d (resleeps %d), sleep prunes %d, ample \
              chains %d (+%d fused), seen entries %d, crashes applied %d, \
              aborts applied %d\n\
              domains: %d%s, merge stall %dus, steals %d\n\
              store: %s, %d %s%s\n\
              journal: peak %d records, %d undo records (%.1f/node)\n"
             s.Mcheck.Explore.dedup_hits s.Mcheck.Explore.resleeps
             s.Mcheck.Explore.sleep_prunes s.Mcheck.Explore.ample_chains
             s.Mcheck.Explore.ample_fused s.Mcheck.Explore.seen_entries
             s.Mcheck.Explore.crashes_applied
             s.Mcheck.Explore.aborts_applied s.Mcheck.Explore.domains_used
             (match s.Mcheck.Explore.domain_nodes with
             | [] | [ _ ] -> ""
             | ns ->
                 Printf.sprintf " (nodes %s)"
                   (String.concat "/" (List.map string_of_int ns)))
             s.Mcheck.Explore.merge_stall_us s.Mcheck.Explore.steals
             (Tsim.Config.store_mode_name store_mode)
             s.Mcheck.Explore.store_capacity
             (match store_mode with
             | Tsim.Config.Store_exact -> "slots"
             | Tsim.Config.Store_bitstate _ -> "bits")
             (if s.Mcheck.Explore.omission_prob > 0.0 then
                Printf.sprintf ", omission probability %.2e"
                  s.Mcheck.Explore.omission_prob
              else "")
             s.Mcheck.Explore.journal_peak s.Mcheck.Explore.undo_records
             (float_of_int s.Mcheck.Explore.undo_records
             /. float_of_int (max 1 r.Mcheck.Explore.nodes)));
        List.iter
          (fun v ->
            (match v.Mcheck.Explore.kind with
            | `Exclusion (a, b) ->
                Printf.printf "EXCLUSION VIOLATION between p%d and p%d\n" a b
            | `Deadlock -> print_endline "DEADLOCK"
            | `Spin_exhausted -> print_endline "SPIN EXHAUSTED");
            Printf.printf "  schedule: %s\n"
              (String.concat "; "
                 (List.map Mcheck.Explore.move_to_string
                    v.Mcheck.Explore.schedule)))
          r.Mcheck.Explore.violations;
        (match (save_schedule, r.Mcheck.Explore.violations) with
        | Some file, v :: _ ->
            Mcheck.Explore.save_schedule file v.Mcheck.Explore.schedule;
            Printf.printf "schedule saved to %s\n" file
        | Some _, [] -> ()
        | None, _ -> ());
        (* one-line verdict; its exit code is the verify contract
           (0 verified / 1 violation / 3 partial) *)
        let verdict, code = Mcheck.Explore.render_verdict r in
        print_endline verdict;
        exit code
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(
      const run $ lock_arg $ n $ max_nodes $ spin_fuel () $ domains $ no_por
      $ save_schedule $ max_crashes $ max_aborts $ max_millis
      $ crash_semantics $ search_stats $ store $ store_bits
      $ store_hashes $ progress $ obs_term)

(* --- replay -------------------------------------------------------------- *)

(* What replay and stats share: look the lock up, load the schedule,
   replay it at [spin_fuel] on a fully-accounting machine, and exit 2 on
   a schedule that does not fit the lock. *)
let replay_schedule name file ~n ~spin_fuel ~crash_semantics ~record_trace =
  let fam =
    match find_lock name with Ok fam -> fam | Error e -> die2 "%s" e
  in
  let schedule =
    match Mcheck.Explore.load_schedule file with
    | Ok schedule -> schedule
    | Error msg ->
        (* Sys_error messages already lead with the path *)
        if String.starts_with ~prefix:file msg then die2 "%s" msg
        else die2 "%s: %s" file msg
  in
  let lock = fam.Locks.Lock_intf.instantiate ~n in
  let cfg =
    Locks.Harness.config_of_lock ~model:Tsim.Config.Cc_wb ~crash_semantics
      lock ~n
  in
  let saved = !Tsim.Prog.default_spin_fuel in
  Tsim.Prog.default_spin_fuel := spin_fuel;
  let m, outcome =
    Fun.protect
      ~finally:(fun () -> Tsim.Prog.default_spin_fuel := saved)
      (fun () ->
        Mcheck.Explore.replay { cfg with Tsim.Config.record_trace } schedule)
  in
  (match outcome with
  | Mcheck.Explore.R_bad_pid (i, p) ->
      die2 "%s: move %d references p%d but the machine has n=%d" file i p n
  | Mcheck.Explore.R_bad_abort (i, p) ->
      die2 "%s: move %d aborts p%d outside a declared wait point" file i p
  | _ -> ());
  (lock, schedule, m, outcome)

let replay_cmd =
  let doc =
    "Replay a schedule file (one move per line, as saved by verify \
     --save-schedule) against a lock and report the outcome."
  in
  let lock_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"LOCK")
  in
  let file =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE")
  in
  let n = Arg.(value & opt int 2 & info [ "n" ] ~doc:"number of processes") in
  let crash_semantics =
    Arg.(
      value & opt crash_semantics_conv Tsim.Config.Drop_buffer
      & info [ "crash-semantics" ]
          ~doc:
            "write-buffer fate on crash moves: drop-buffer, flush-buffer, \
             or atomic-prefix (must match the exploring run)")
  in
  let run name file n spin_fuel crash_semantics =
    (* outcome-only replay: the trace is never read, so don't pay for
       recording it. The stats command records it: it recomputes metrics
       from the trace. *)
    let lock, schedule, _, outcome =
      replay_schedule name file ~n ~spin_fuel ~crash_semantics
        ~record_trace:false
    in
    Printf.printf "%s n=%d: %d moves\n" lock.Locks.Lock_intf.name n
      (List.length schedule);
    match outcome with
    | Mcheck.Explore.R_exclusion (h, i) ->
        Printf.printf
          "EXCLUSION VIOLATION: p%d in the critical section, p%d entered\n"
          h i
    | Mcheck.Explore.R_spin v -> Printf.printf "SPIN EXHAUSTED on v%d\n" v
    | Mcheck.Explore.R_stuck (i, msg) ->
        Printf.printf "stuck at move %d: %s\n" i msg;
        exit 1
    | _ -> print_endline "schedule completed without violation"
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(const run $ lock_arg $ file $ n $ spin_fuel () $ crash_semantics)

(* --- stats --------------------------------------------------------------- *)

let stats_cmd =
  let doc =
    "Replay a saved schedule with trace recording on and print the full \
     cost breakdown: per-process and per-passage fence / RMR / \
     critical-event totals (recomputed from the trace and cross-checked \
     against the machine's online counters)."
  in
  let lock_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"LOCK")
  in
  let file =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE")
  in
  let n = Arg.(value & opt int 2 & info [ "n" ] ~doc:"number of processes") in
  let crash_semantics =
    Arg.(
      value & opt crash_semantics_conv Tsim.Config.Drop_buffer
      & info [ "crash-semantics" ]
          ~doc:"write-buffer fate on crash moves (must match the explorer)")
  in
  let chrome =
    Arg.(
      value & opt (some string) None
      & info [ "chrome-trace" ] ~docv:"FILE"
          ~doc:
            "also export the replayed execution as a Chrome trace-event \
             JSON file (one lane per process, passages and fences as \
             spans)")
  in
  let run name file n spin_fuel crash_semantics chrome =
    let lock, schedule, m, outcome =
      replay_schedule name file ~n ~spin_fuel ~crash_semantics
        ~record_trace:true
    in
    (match outcome with
    | Mcheck.Explore.R_stuck (i, msg) ->
        die2 "%s: stuck at move %d: %s" file i msg
    | _ -> ());
    let tr = Execution.Trace.of_machine m in
    let metrics = Execution.Metrics.compute tr in
    Printf.printf "%s n=%d: %d moves, %d events\n"
      lock.Locks.Lock_intf.name n (List.length schedule)
      (Execution.Trace.length tr);
    (match outcome with
    | Mcheck.Explore.R_exclusion (h, i) ->
        Printf.printf
          "note: schedule ends in an exclusion violation (p%d \
           holds, p%d enters)\n"
          h i
    | Mcheck.Explore.R_spin v ->
        Printf.printf "note: schedule ends in spin exhaustion on \
                       v%d\n"
          v
    | _ -> ());
    Format.printf "%a" Execution.Metrics.pp metrics;
    (* per-passage breakdown through the shared columnar
       renderer: one row per (process, passage) *)
    (match
       List.concat_map
         (fun pp ->
           List.map
             (fun mp ->
               [
                 ("pid", Obs.Json.Int pp.Execution.Metrics.pp_pid);
                 ( "passage",
                   Obs.Json.Int mp.Execution.Metrics.mp_index );
                 ("events", Obs.Json.Int mp.Execution.Metrics.mp_events);
                 ("rmrs", Obs.Json.Int mp.Execution.Metrics.mp_rmrs);
                 ("fences", Obs.Json.Int mp.Execution.Metrics.mp_fences);
                 ( "criticals",
                   Obs.Json.Int mp.Execution.Metrics.mp_criticals );
               ])
             pp.Execution.Metrics.pp_passage_log)
         metrics.Execution.Metrics.processes
     with
    | [] -> ()
    | rows -> print_string (Obs.Json.pp_rows ~indent:4 rows));
    (match chrome with
    | Some out ->
        let oc = open_out out in
        Execution.Chrome.export oc tr;
        close_out oc;
        Printf.printf "chrome trace -> %s\n" out
    | None -> ());
    match Execution.Metrics.cross_check m metrics with
    | [] ->
        print_endline
          "cross-check: online machine counters agree with the \
           trace recomputation"
    | fails ->
        Printf.printf "cross-check: %d mismatches\n"
          (List.length fails);
        List.iter (fun f -> Printf.printf "  %s\n" f) fails;
        exit 1
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(
      const run $ lock_arg $ file $ n $ spin_fuel () $ crash_semantics
      $ chrome)

(* --- campaign ------------------------------------------------------------ *)

let campaign_cmd =
  let doc =
    "Run a batch verification campaign: a scenario grid of whole \
     searches scheduled across domains, a persistent result cache that \
     makes re-runs and resumes skip completed cells, and adaptive \
     bracketing of phase-transition frontiers (smallest n forcing k \
     fences, largest exhaustively-checkable n, smallest fault budget \
     refuting a lock)."
  in
  let grids =
    Arg.(
      value & opt_all string []
      & info [ "grid" ] ~docv:"SPEC"
          ~doc:
            "scenario grid: field=v1,v2,... tokens separated by spaces \
             or ';', integer fields accepting a-b ranges; the grid is \
             the cartesian product of all dimensions. Fields: kind \
             (verify, adversary), lock, n, model, ord, pass, crashes, \
             aborts, csem, store, por. Example: 'lock=tas,ticket n=2-3 \
             crashes=0,1'. Repeatable")
  in
  let brackets =
    Arg.(
      value & opt_all string []
      & info [ "bracket" ] ~docv:"SPEC"
          ~doc:
            "frontier search: a goal (min-n-fences with k=, \
             max-exhaustive-n, min-crashes-refute, min-aborts-refute) \
             followed by base-cell fields and lo=/hi= bounds. Example: \
             'min-n-fences lock=tournament k=6 lo=2 hi=17'. Probes are \
             ordinary cells and land in the cache. Repeatable")
  in
  let cache_path =
    Arg.(
      value & opt string "campaign.cache.ndjson"
      & info [ "cache" ] ~docv:"FILE"
          ~doc:"persistent result cache (NDJSON, appended as cells finish)")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "load completed cells from the cache file and skip them; \
             without this flag the cache is truncated (cold run). \
             Corrupt lines are skipped, a version/salt mismatch discards \
             the whole file — never trusted silently")
  in
  let jobs =
    Arg.(
      value & opt positive_int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "workers, the calling domain among them; the other N-1 \
             domains start with the first search, so a run the cache \
             answers starts none. Workers take the brackets first, then \
             the grid's searches cheapest-first, from one shared queue, \
             and each search runs sequentially, so reports are identical \
             at any job count. Each distinct search runs once per run: \
             verify cells that differ only in model share one, and a probe \
             that meets a grid search reuses it or waits for it. At most \
             the host's recommended domain count, with a note on stderr \
             when cut")
  in
  let max_nodes =
    Arg.(
      value & opt positive_int 200_000
      & info [ "max-nodes" ]
          ~doc:
            "per-cell node budget, at least 1; each distinct search runs \
             once with this budget")
  in
  let max_millis =
    Arg.(
      value & opt (some positive_int) None
      & info [ "max-millis" ]
          ~doc:
            "per-cell wall-clock budget in milliseconds, at least 1, for \
             the cell's one search (outcomes cut by it are reported but \
             never cached)")
  in
  let spin_fuel =
    spin_fuel
      ~doc:
        "busy-wait bound, at least 1, one value for the whole campaign \
         (cells share the simulator's spin-fuel setting); cached \
         outcomes are only reused at the fuel they were found at"
      ()
  in
  let report =
    Arg.(
      value & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "write the machine-readable JSON report to $(docv): \
             versioned, cells in canonical key order, free of timings \
             and cache provenance — byte-identical across cold/warm \
             runs and job counts. Written (marked incomplete) on \
             interrupt too")
  in
  let dry_run =
    Arg.(
      value & flag
      & info [ "dry-run" ]
          ~doc:
            "list the brackets, then the planned cells, in the order the \
             workers take them, with budgets, and exit without running \
             anything")
  in
  let validate =
    Arg.(
      value & opt (some string) None
      & info [ "validate-report" ] ~docv:"FILE"
          ~doc:
            "validate $(docv) against the report schema and exit (0 \
             valid, 2 invalid); no cells are run")
  in
  let run grids brackets cache_path resume jobs max_nodes max_millis
      spin_fuel report dry_run validate obs_opts =
    (match validate with
    | Some path ->
        let contents =
          try
            let ic = open_in path in
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          with Sys_error msg -> die2 "%s" msg
        in
        (match Obs.Json.parse contents with
        | Error e -> die2 "%s: not JSON: %s" path e
        | Ok j -> (
            match Campaign.Driver.validate_report j with
            | Ok () ->
                Printf.printf "%s: valid campaign report\n" path;
                exit 0
            | Error m -> die2 "%s: %s" path m))
    | None -> ());
    let jobs = clamp_workers "--jobs" jobs in
    if grids = [] && brackets = [] then
      die2 "nothing to do: give at least one --grid or --bracket";
    let grid =
      List.concat_map
        (fun spec ->
          match Campaign.Driver.parse_grid spec with
          | Ok cells -> cells
          | Error m -> die2 "--grid %S: %s" spec m)
        grids
    in
    let brackets =
      List.map
        (fun spec ->
          match Campaign.Driver.parse_bracket spec with
          | Ok b -> b
          | Error m -> die2 "--bracket %S: %s" spec m)
        brackets
    in
    let plan = { Campaign.Driver.grid; brackets } in
    let planned = Campaign.Driver.planned grid in
    if dry_run then begin
      (try List.iter Campaign.Runner.resolve planned with
      | Campaign.Runner.Bad_cell m -> die2 "%s" m);
      Printf.printf "%d cells, %d brackets, cap %d nodes/cell:\n"
        (List.length planned) (List.length brackets) max_nodes;
      List.iter
        (fun (b : Campaign.Driver.bracket_spec) ->
          Printf.printf "  bracket %s over [%d, %d] of %s\n"
            (Campaign.Driver.goal_name b.Campaign.Driver.goal)
            b.Campaign.Driver.lo b.Campaign.Driver.hi
            (Campaign.Cell.key b.Campaign.Driver.base))
        brackets;
      List.iter
        (fun c ->
          Printf.printf "  %-72s cost~%.0f\n" (Campaign.Cell.key c)
            (Campaign.Cell.cost_hint c))
        planned;
      exit 0
    end;
    let cache, cstats = Campaign.Cache.open_file ~resume cache_path in
    if resume then begin
      Printf.printf "cache: %d search outcomes loaded from %s%s\n"
        cstats.Campaign.Cache.loaded cache_path
        (if cstats.Campaign.Cache.skipped > 0 then
           Printf.sprintf " (%d corrupt lines skipped)"
             cstats.Campaign.Cache.skipped
         else "");
      if cstats.Campaign.Cache.invalid_header then
        print_endline
          "cache: header missing or version/salt mismatch — discarded, \
           recomputing everything"
    end;
    (* ctrl-C finishes the cells in flight, flushes the cache, and exits
       3 with a partial (complete=false) report *)
    let stop = Atomic.make false in
    Sys.set_signal Sys.sigint
      (Sys.Signal_handle (fun _ -> Atomic.set stop true));
    let t0 = Unix.gettimeofday () in
    let r =
      Fun.protect
        ~finally:(fun () -> Campaign.Cache.close cache)
        (fun () ->
          try
            with_obs obs_opts (fun obs ->
                Campaign.Driver.run ~jobs ~max_nodes ?max_millis ~spin_fuel
                  ~stop ~obs ~cache plan)
          with Campaign.Runner.Bad_cell m -> die2 "%s" m)
    in
    let dt = Unix.gettimeofday () -. t0 in
    let tally pred =
      List.length
        (List.filter
           (fun cr -> pred cr.Campaign.Driver.outcome.Campaign.Cell.verdict)
           r.Campaign.Driver.cells)
    in
    Printf.printf
      "campaign: %d cells in %.2fs (%d searches run, %d cells shared a \
       search, %d from cache) — %d verified, %d violations, %d partial, \
       %d fence counts\n"
      (List.length r.Campaign.Driver.cells)
      dt r.Campaign.Driver.executed r.Campaign.Driver.shared
      r.Campaign.Driver.hits
      (tally (function Campaign.Cell.Verified -> true | _ -> false))
      (tally (function Campaign.Cell.Violation _ -> true | _ -> false))
      (tally (function Campaign.Cell.Partial _ -> true | _ -> false))
      (tally (function Campaign.Cell.Fences _ -> true | _ -> false));
    List.iter
      (fun (br : Campaign.Driver.bracket_result) ->
        Printf.printf "bracket %s of %s over [%d, %d]: %s (%d probes)\n"
          (Campaign.Driver.goal_name br.Campaign.Driver.spec.Campaign.Driver.goal)
          (Campaign.Cell.key br.Campaign.Driver.spec.Campaign.Driver.base)
          br.Campaign.Driver.spec.Campaign.Driver.lo
          br.Campaign.Driver.spec.Campaign.Driver.hi
          (match br.Campaign.Driver.answer with
          | Some a -> string_of_int a
          | None -> "no frontier in range")
          br.Campaign.Driver.evals)
      r.Campaign.Driver.brackets;
    (match report with
    | Some path ->
        let oc = open_out path in
        output_string oc
          (Obs.Json.to_string (Campaign.Driver.report_json r));
        output_char oc '\n';
        close_out oc;
        Printf.printf "report -> %s\n" path
    | None -> ());
    if r.Campaign.Driver.interrupted then begin
      print_endline "interrupted: partial results cached and reported";
      exit 3
    end
  in
  Cmd.v (Cmd.info "campaign" ~doc)
    Term.(
      const run $ grids $ brackets $ cache_path $ resume $ jobs $ max_nodes
      $ max_millis $ spin_fuel $ report $ dry_run $ validate $ obs_term)

(* --- litmus -------------------------------------------------------------- *)

let litmus_cmd =
  let doc = "Run the SB and MP litmus tests under TSO or PSO." in
  let pso = Arg.(value & flag & info [ "pso" ] ~doc:"use PSO ordering") in
  let run pso =
    let ordering = if pso then Tsim.Config.Pso else Tsim.Config.Tso in
    Printf.printf "ordering: %s\n" (Tsim.Config.ordering_name ordering);
    (* store buffering *)
    let open Tsim in
    let open Tsim.Prog in
    let layout = Layout.create () in
    let x = Layout.var layout "x" and y = Layout.var layout "y" in
    let res = Array.make 2 (-1) in
    let cfg =
      Config.make ~model:Config.Cc_wb ~ordering ~check_exclusion:false ~n:2
        ~layout
        ~entry:(fun p ->
          let mine = if p = 0 then x else y in
          let other = if p = 0 then y else x in
          let* () = write mine 1 in
          let* r = read other in
          res.(p) <- r;
          unit)
        ~exit_section:(fun _ -> Prog.unit)
        ()
    in
    let m = Machine.create cfg in
    for p = 0 to 1 do
      ignore (Machine.step m p);
      (* Enter *)
      ignore (Machine.step m p);
      (* issue *)
      ignore (Machine.step m p)
      (* read *)
    done;
    Printf.printf "SB (delayed commits): r0=%d r1=%d  (0/0 = TSO anomaly)\n"
      res.(0) res.(1)
  in
  Cmd.v (Cmd.info "litmus" ~doc) Term.(const run $ pso)

let () =
  let doc =
    "Reproduction of 'The Price of being Adaptive' (Ben-Baruch & Hendler, \
     PODC 2015)"
  in
  let info = Cmd.info "price_adaptive" ~version:"1.0.0" ~doc in
  (* Bad input must always surface as a one-line diagnostic with exit
     code 2, never a backtrace: command-line errors (bad option values,
     unknown options or commands, missing arguments) map to 2 instead of
     cmdliner's 124, and with [~catch:false] the handler below sees
     anything the commands let through (unreadable files,
     Invalid_argument from deep in the stack). *)
  let code =
    try
      match
        Cmd.eval_value ~catch:false
          (Cmd.group info
             [ list_cmd; lock_cmd; adversary_cmd; bounds_cmd; verify_cmd;
               campaign_cmd; replay_cmd; stats_cmd; trace_cmd; analyze_cmd;
               show_cmd; litmus_cmd ])
      with
      | Ok (`Ok () | `Help | `Version) -> Cmd.Exit.ok
      | Error (`Parse | `Term) -> 2
      | Error `Exn -> Cmd.Exit.internal_error
    with
    | Sys_error msg ->
        prerr_endline msg;
        2
    | Invalid_argument msg | Failure msg ->
        Printf.eprintf "error: %s\n" msg;
        2
  in
  exit code
