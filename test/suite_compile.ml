(* The compile-ahead engine (Tsim.Compile), locked down three ways:

   - a lockstep single-step oracle: qcheck random walks drive one
     interpretive machine and one compiled machine through the SAME move
     sequence, comparing enabled-move lists, observable state,
     footprints and both fingerprints after every event — the compiled
     analogue of suite_journal's step;undo law;

   - the step;undo law itself on compiled machines: journal rollback
     must restore an interned continuation (the pc >= 0 representative)
     exactly, Machine.equal included;

   - typed compile-time failures: a section root that unrolls past the
     instruction budget reports Program_too_large, a root whose register
     frame cannot be interned structurally reports Opaque_continuation —
     errors, never crashes or wrong answers — while runtime-only limits
     (value-edge fanout) degrade to the interpreter path silently. *)

open Tsim
open Tsim.Prog
module E = Mcheck.Explore

(* --- lockstep oracle --------------------------------------------------- *)

(* Everything the explorer can observe of a machine state, compared
   field by field. Continuations are compared through the fingerprint
   (which hashes them structurally) rather than [==]: the interpretive
   machine rebuilds closures the compiled machine interns. *)
let check_observables ~tag cfg mi mc =
  Alcotest.(check int) (tag ^ ": full fingerprint") (Machine.fingerprint mi)
    (Machine.fingerprint mc);
  Alcotest.(check int)
    (tag ^ ": incremental fingerprint")
    (Machine.fingerprint_fast mi)
    (Machine.fingerprint_fast mc);
  for v = 0 to Layout.size cfg.Config.layout - 1 do
    Alcotest.(check int)
      (Printf.sprintf "%s: mem v%d" tag v)
      (Machine.mem_value mi v) (Machine.mem_value mc v)
  done;
  for p = 0 to cfg.Config.n - 1 do
    let pi = Machine.proc mi p and pc = Machine.proc mc p in
    Alcotest.(check string)
      (Printf.sprintf "%s: section p%d" tag p)
      (Machine.section_name pi.Machine.sec)
      (Machine.section_name pc.Machine.sec);
    Alcotest.(check string)
      (Printf.sprintf "%s: pending p%d" tag p)
      (Machine.pending_to_string (Machine.pending mi p))
      (Machine.pending_to_string (Machine.pending mc p));
    Alcotest.(check int)
      (Printf.sprintf "%s: packed footprint p%d" tag p)
      (Machine.step_footprint_packed mi p)
      (Machine.step_footprint_packed mc p);
    Alcotest.(check bool)
      (Printf.sprintf "%s: may_enable_cs p%d" tag p)
      (Machine.step_may_enable_cs mi p)
      (Machine.step_may_enable_cs mc p);
    Alcotest.(check int)
      (Printf.sprintf "%s: buffered writes p%d" tag p)
      (Wbuf.size pi.Machine.buf) (Wbuf.size pc.Machine.buf)
  done

let exn_class = function
  | Machine.Exclusion_violation _ -> "exclusion"
  | Prog.Spin_exhausted _ -> "spin"
  | e -> Printexc.to_string e

(* Drive both machines through the same randomly chosen enabled moves,
   checking the full observable projection after every event. An
   exception must surface from both engines with the same class; it may
   leave partial mutations behind, so it ends the walk. *)
let lockstep_walk ?(max_crashes = 0) cfg seed =
  let rng = Random.State.make [| seed |] in
  let mi = Machine.create { cfg with Config.engine = `Journal } in
  let mc = Machine.create { cfg with Config.engine = `Compiled } in
  Machine.Journal.enable mi;
  Machine.Journal.enable mc;
  let steps = ref 0 and continue = ref true in
  while !continue && !steps < 80 do
    incr steps;
    let tag = Printf.sprintf "step %d" !steps in
    check_observables ~tag cfg mi mc;
    let movesi = E.enabled_moves ~max_crashes mi in
    let movesc = E.enabled_moves ~max_crashes mc in
    if
      List.map E.move_to_string movesi <> List.map E.move_to_string movesc
    then
      Alcotest.failf "%s: enabled moves disagree: [%s] vs [%s]" tag
        (String.concat "; " (List.map E.move_to_string movesi))
        (String.concat "; " (List.map E.move_to_string movesc));
    match movesi with
    | [] -> continue := false
    | moves -> (
        let mv = List.nth moves (Random.State.int rng (List.length moves)) in
        let go m = try Ok (E.apply m mv) with e -> Error (exn_class e) in
        match (go mi, go mc) with
        | Ok (), Ok () -> ()
        | Error a, Error b ->
            Alcotest.(check string)
              (tag ^ ": same exception from " ^ E.move_to_string mv)
              a b;
            continue := false
        | Ok (), Error e | Error e, Ok () ->
            Alcotest.failf "%s: engines disagree on raising %s from %s" tag e
              (E.move_to_string mv))
  done;
  true

let prop_lockstep name ?max_crashes mk_cfg arb =
  QCheck.Test.make ~count:60 ~name
    QCheck.(pair arb small_nat)
    (fun (x, seed) -> lockstep_walk ?max_crashes (mk_cfg x) seed)

(* --- step;undo on compiled machines ------------------------------------ *)

(* suite_journal's walk_restores law, on a machine whose continuations
   are interned pcs: undo must re-derive the canonical representative,
   so even the physical-identity comparison in Machine.equal holds. *)
let compiled_walk_restores ?(max_crashes = 0) cfg seed =
  let rng = Random.State.make [| seed |] in
  let m = Machine.create { cfg with Config.engine = `Compiled } in
  Machine.Journal.enable m;
  let steps = ref 0 and continue = ref true in
  while !continue && !steps < 60 do
    incr steps;
    match E.enabled_moves ~max_crashes m with
    | [] -> continue := false
    | moves ->
        let mv = List.nth moves (Random.State.int rng (List.length moves)) in
        let snap = Machine.clone m in
        let fp_before = Machine.fingerprint m in
        let mark = Machine.Journal.mark m in
        let raised =
          try
            E.apply m mv;
            false
          with Machine.Exclusion_violation _ | Prog.Spin_exhausted _ -> true
        in
        Machine.Journal.undo_to m mark;
        if not (Machine.equal m snap) then
          Alcotest.failf "undo after %s did not restore the compiled state"
            (E.move_to_string mv);
        Alcotest.(check int) "full fingerprint restored" fp_before
          (Machine.fingerprint m);
        Alcotest.(check int) "incremental fingerprint restored" fp_before
          (Machine.fingerprint_fast m);
        if raised then continue := false else E.apply m mv
  done;
  true

(* --- typed compile-time errors ----------------------------------------- *)

let one_proc entry =
  let layout = Layout.create () in
  let v = Layout.var layout ~init:0 "v" in
  ( v,
    fun () ->
      Config.make ~pure_programs:true ~n:1 ~layout ~entry:(fun _ -> entry v)
        ~exit_section:(fun _ -> Prog.unit)
        () )

let test_program_too_large () =
  let _, mk_cfg =
    one_proc (fun v ->
        (* 64 distinct straight-line continuations: eager unit-edge
           closing must overflow a 16-instruction budget *)
        let rec chain n =
          if n = 0 then unit
          else
            let* () = write v n in
            chain (n - 1)
        in
        chain 64)
  in
  match Compile.make ~max_instrs:16 (mk_cfg ()) with
  | _ -> Alcotest.fail "expected Program_too_large"
  | exception Compile.Error (Compile.Program_too_large { limit; _ }) ->
      Alcotest.(check int) "reports the budget it overflowed" 16 limit
  | exception Compile.Error e ->
      Alcotest.failf "wrong error: %s" (Compile.error_to_string e)

let test_opaque_continuation () =
  let ch = stdin in
  let _, mk_cfg =
    one_proc (fun v ->
        let* x = read v in
        (* the continuation's register frame captures a channel, which
           structural interning cannot serialize *)
        if x = 12345 then (
          ignore (input_char ch);
          unit)
        else unit)
  in
  match Compile.make (mk_cfg ()) with
  | _ -> Alcotest.fail "expected Opaque_continuation"
  | exception Compile.Error (Compile.Opaque_continuation { reason; _ }) ->
      Alcotest.(check bool) "reason is non-empty" true
        (String.length reason > 0)
  | exception Compile.Error e ->
      Alcotest.failf "wrong error: %s" (Compile.error_to_string e)

(* Run-time limits are budgets, not errors: new read results intern new
   instructions on demand (memoized up to [max_fanout]); once the code
   store fills, further value edges return -1 — the caller parks that
   process on the interpreter path — and execution stays correct. *)
let test_fanout_degrades () =
  let _, mk_cfg =
    one_proc (fun v ->
        let* x = read v in
        write v (x + 1))
  in
  (* distinct continuation per read result: each new value interns one *)
  let c = Compile.make (mk_cfg ()) in
  let base = Compile.size c in
  let pc = Compile.entry_pc c 0 in
  Alcotest.(check bool) "entry section compiled" true (pc >= 0);
  (match Compile.rep c pc with
  | Prog.Bind (Prog.Read _, k) ->
      let a = Compile.advance_val c pc k 0 in
      Alcotest.(check bool) "first value edge compiles" true (a >= 0);
      Alcotest.(check int) "it interned a new instruction" (base + 1)
        (Compile.size c);
      let b = Compile.advance_val c pc k 1 in
      Alcotest.(check bool) "distinct value, distinct edge" true
        (b >= 0 && b <> a);
      Alcotest.(check int) "memoized edge is stable" a
        (Compile.advance_val c pc k 0)
  | _ -> Alcotest.fail "entry root should be a read");
  (* a full code store degrades new value edges to the interpreter *)
  let c' = Compile.make ~max_instrs:base (mk_cfg ()) in
  let pc' = Compile.entry_pc c' 0 in
  Alcotest.(check bool) "roots still fit exactly" true (pc' >= 0);
  match Compile.rep c' pc' with
  | Prog.Bind (Prog.Read _, k) ->
      Alcotest.(check int) "value edge past the budget degrades" (-1)
        (Compile.advance_val c' pc' k 7)
  | _ -> Alcotest.fail "entry root should be a read"

(* Impure configurations must degrade [`Compiled] to the journal
   interpreter wholesale rather than compile a lying cache: same
   verdict, same node count, same fingerprint multiset. *)
let test_impure_degrades () =
  let mk_cfg engine =
    {
      (Locks.Harness.config_of_lock ~model:Config.Cc_wb
         (Locks.Ticket.make ~n:2) ~n:2)
      with
      Config.engine;
    }
  in
  let run engine =
    let tbl = Hashtbl.create 256 in
    let r =
      E.explore ~max_nodes:500_000
        ~on_fingerprint:(fun fp ->
          Hashtbl.replace tbl fp
            (1 + Option.value ~default:0 (Hashtbl.find_opt tbl fp)))
        (mk_cfg engine)
    in
    (r, tbl)
  in
  Alcotest.(check bool) "ticket lock is declared impure" false
    (mk_cfg `Journal).Config.pure_programs;
  let rj, tj = run `Journal and rc, tc = run `Compiled in
  Alcotest.(check bool) "verified agrees" rj.E.verified rc.E.verified;
  Alcotest.(check int) "nodes agree" rj.E.nodes rc.E.nodes;
  Alcotest.(check int) "distinct fingerprints agree" (Hashtbl.length tj)
    (Hashtbl.length tc);
  Hashtbl.iter
    (fun fp n ->
      Alcotest.(check int)
        (Printf.sprintf "multiplicity of %x" fp)
        n
        (Option.value ~default:0 (Hashtbl.find_opt tc fp)))
    tj

(* --- engine selection ---------------------------------------------------- *)

(* PA_ENGINE picks the default engine; an empty value counts as unset and
   anything else is rejected by name, never silently run as the journal
   engine. The variable is restored however the test exits (to empty,
   i.e. unset, when it was unset). *)
let test_pa_engine () =
  let saved = Sys.getenv_opt "PA_ENGINE" in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "PA_ENGINE" (Option.value saved ~default:""))
    (fun () ->
      let with_env v = Unix.putenv "PA_ENGINE" v; Config.default_engine () in
      Alcotest.(check string) "journal" "journal"
        (Config.engine_name (with_env "journal"));
      Alcotest.(check string) "compiled" "compiled"
        (Config.engine_name (with_env "compiled"));
      Alcotest.(check string) "empty is unset" "journal"
        (Config.engine_name (with_env ""));
      List.iter
        (fun v ->
          Alcotest.check_raises (Printf.sprintf "PA_ENGINE=%s rejected" v)
            (Invalid_argument
               (Printf.sprintf
                  "PA_ENGINE=%S: unknown engine (expected journal or compiled)"
                  v))
            (fun () -> ignore (with_env v)))
        [ "clone"; "bogus"; "Journal" ])

(* --- workloads for the walks ------------------------------------------- *)

let rtas () =
  Locks.Harness.config_of_lock ~model:Config.Cc_wb
    ~crash_semantics:Config.Atomic_prefix
    (Locks.Recoverable_tas.make ~n:2) ~n:2

let suite =
  [
    QCheck_alcotest.to_alcotest
      (prop_lockstep "lockstep: compiled = interpreter on random programs"
         (fun progs -> Suite_mcheck_equiv.config_of_rops progs)
         Suite_mcheck_equiv.arb_prog2);
    QCheck_alcotest.to_alcotest
      (prop_lockstep
         "lockstep: compiled = interpreter on random crash/recovery programs"
         ~max_crashes:2
         (fun c -> Suite_mcheck_equiv.config_of_crashy c)
         Suite_mcheck_equiv.arb_crashy);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:60 ~name:"step;undo law on compiled machines"
         QCheck.small_nat
         (fun seed ->
           compiled_walk_restores ~max_crashes:1 (rtas ()) seed));
    Alcotest.test_case "instruction-budget overflow is a typed error" `Quick
      test_program_too_large;
    Alcotest.test_case "unserializable register frame is a typed error"
      `Quick test_opaque_continuation;
    Alcotest.test_case "value-edge fanout degrades, never errors" `Quick
      test_fanout_degrades;
    Alcotest.test_case "impure configuration degrades to the interpreter"
      `Quick test_impure_degrades;
    Alcotest.test_case "PA_ENGINE: unknown engines rejected" `Quick
      test_pa_engine;
  ]
