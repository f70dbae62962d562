(* Explorer-configuration equivalence: every configuration of the
   explorer (partial-order reduction on and off, one domain and the
   domain-parallel driver) must report the same verdicts as the
   test-only reference explorer (reference.ml).

   Node counts are NOT compared across configurations: the reduction exists to
   change them, and under nontrivial sleep masks the shared-store claim
   races make parallel counts timing-dependent. What must agree is the
   semantics — [verified], [exhausted] (for verifying configurations) and
   the kind of violation found (for violating ones). *)

open Tsim
open Tsim.Prog

let peterson ~fenced =
  let layout = Layout.create () in
  let flag = Layout.array layout ~init:0 "flag" 2 in
  let turn = Layout.var layout ~init:0 "turn" in
  Config.make ~model:Config.Cc_wb ~check_exclusion:true ~n:2 ~layout
    ~entry:(fun p ->
      let* () = write flag.(p) 1 in
      let* () = write turn p in
      let* () = if fenced then fence else unit in
      let rec await fuel =
        if fuel <= 0 then raise (Prog.Spin_exhausted turn)
        else
          let* f = read flag.(1 - p) in
          if f = 0 then unit
          else
            let* t = read turn in
            if t <> p then unit else await (fuel - 1)
      in
      await 4)
    ~exit_section:(fun p ->
      let* () = write flag.(p) 0 in
      fence)
    ()

let dekker () =
  Locks.Harness.config_of_lock ~model:Config.Cc_wb
    (Locks.Dekker.make ~n:2) ~n:2

(* Message-passing litmus encoded as exclusion reachability (cf.
   suite_mcheck): under PSO the out-of-order commit reaches the anomaly,
   reported as an exclusion violation. *)
let mp_pso () =
  let layout = Layout.create () in
  let data = Layout.var layout "data" in
  let flag = Layout.var layout "flag" in
  let blocked = Layout.var layout "blocked" in
  Config.make ~model:Config.Cc_wb ~ordering:Config.Pso ~check_exclusion:true
    ~n:2 ~layout
    ~entry:(fun p ->
      if p = 0 then
        let* () = write data 1 in
        let* () = write flag 1 in
        unit
      else
        let* f = read flag in
        let* d = read data in
        if f = 1 && d = 0 then unit
        else
          let* _ = spin_until ~fuel:1 blocked (fun x -> x = 1) in
          unit)
    ~exit_section:(fun _ -> Prog.unit)
    ()

type verdict = Verified | Violation of string | Inconclusive

let verdict_to_string = function
  | Verified -> "verified"
  | Violation k -> "violation:" ^ k
  | Inconclusive -> "inconclusive"

let verdict_of (r : Mcheck.Explore.result) =
  match r.Mcheck.Explore.violations with
  | [] -> if r.Mcheck.Explore.verified then Verified else Inconclusive
  | v :: _ ->
      Violation
        (match v.Mcheck.Explore.kind with
        | `Exclusion _ -> "exclusion"
        | `Deadlock -> "deadlock"
        | `Spin_exhausted -> "spin")

let verdict = Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (verdict_to_string v))
    ( = )

(* The explorer configurations under comparison: the partial-order
   reduction on and off at one, four and eight domains. POR must be
   verdict-invisible everywhere, and every verdict must match the
   reference explorer's (reference.ml). *)
let engines =
  [
    ("fast (por on, d=1)",
     fun cfg -> Mcheck.Explore.explore ~max_nodes:2_000_000 cfg);
    ("fast (por off, d=1)",
     fun cfg -> Mcheck.Explore.explore ~max_nodes:2_000_000 ~por:false cfg);
    ("parallel (por on, d=4)",
     fun cfg -> Mcheck.Explore.explore ~max_nodes:2_000_000 ~domains:4 cfg);
    ("parallel (por off, d=4)",
     fun cfg ->
       Mcheck.Explore.explore ~max_nodes:2_000_000 ~domains:4 ~por:false cfg);
    ("parallel (por on, d=8)",
     fun cfg -> Mcheck.Explore.explore ~max_nodes:2_000_000 ~domains:8 cfg);
    ("parallel (por off, d=8)",
     fun cfg ->
       Mcheck.Explore.explore ~max_nodes:2_000_000 ~domains:8 ~por:false cfg);
  ]

let check_equiv name mk_cfg expected =
  Alcotest.test_case name `Quick (fun () ->
      let kinds = (Reference.explore (mk_cfg ())).Reference.kinds in
      Alcotest.(check bool)
        ("reference explorer on " ^ name)
        true
        (match expected with
        | Verified -> kinds = []
        | Violation k -> List.mem k kinds
        | Inconclusive -> false);
      List.iter
        (fun (engine, run) ->
          let r = run (mk_cfg ()) in
          Alcotest.check verdict
            (Printf.sprintf "%s on %s" engine name)
            expected (verdict_of r);
          (* verifying configurations must actually exhaust the space *)
          if expected = Verified then
            Alcotest.(check bool)
              (Printf.sprintf "%s exhausted on %s" engine name)
              true r.Mcheck.Explore.exhausted;
          (* reported exclusion schedules always replay *)
          match r.Mcheck.Explore.violations with
          | { Mcheck.Explore.kind = `Exclusion _; schedule } :: _ ->
              ignore (fst (Mcheck.Explore.replay (mk_cfg ()) schedule))
          | _ -> ())
        engines)

(* Determinism of the parallel driver, per the explore.mli contract:
   [verified]/[exhausted] and the violation set are always deterministic;
   node counts additionally so when sleep masks are trivial ([por:false])
   and no cap cuts the search — each state is then claimed exactly once
   in the shared store, so [nodes] equals the state-space size regardless
   of domain timing. [max_depth] records the first-arrival depth of each
   claimed state and is deliberately NOT compared: which path wins the
   claim race varies run to run. *)
let test_parallel_deterministic () =
  let run ~por () =
    Mcheck.Explore.explore ~max_nodes:2_000_000 ~domains:4 ~por
      (peterson ~fenced:true)
  in
  let a = run ~por:false () and b = run ~por:false () in
  Alcotest.(check int) "por off: same nodes" a.Mcheck.Explore.nodes
    b.Mcheck.Explore.nodes;
  Alcotest.(check bool) "por off: same verdict" a.Mcheck.Explore.verified
    b.Mcheck.Explore.verified;
  let a = run ~por:true () and b = run ~por:true () in
  Alcotest.(check bool) "por on: same verdict" a.Mcheck.Explore.verified
    b.Mcheck.Explore.verified;
  Alcotest.(check bool) "por on: same exhausted" a.Mcheck.Explore.exhausted
    b.Mcheck.Explore.exhausted

(* Under a widened violation cap, every configuration must surface the
   reference explorer's SET of violation kinds — the cap no longer
   truncates the interesting part of the space, so the kind set is part
   of the determinism contract. *)
let test_kind_set_equiv () =
  List.iter
    (fun (name, mk_cfg) ->
      let expected = (Reference.explore (mk_cfg ())).Reference.kinds in
      List.iter
        (fun (domains, por) ->
          let r =
            Mcheck.Explore.explore ~max_nodes:2_000_000 ~max_violations:8
              ~domains ~por (mk_cfg ())
          in
          Alcotest.(check (list string))
            (Printf.sprintf "%s kinds (d=%d por=%b)" name domains por)
            expected (Reference.kinds_of r))
        [ (1, true); (4, true); (4, false); (8, false) ])
    [ ("peterson unfenced", fun () -> peterson ~fenced:false);
      ("mp pso", mp_pso) ]

(* The ~on_fingerprint hook is a single closure that cannot be shared by
   concurrent domains; combining it with domains > 1 must be rejected
   loudly rather than racing (documented in explore.mli). *)
let test_on_fingerprint_rejects_domains () =
  Alcotest.check_raises "on_fingerprint + domains=4 rejected"
    (Invalid_argument "Explore.explore: on_fingerprint requires domains = 1")
    (fun () ->
      ignore
        (Mcheck.Explore.explore ~max_nodes:1000 ~domains:4
           ~on_fingerprint:(fun _ -> ())
           (peterson ~fenced:true)));
  (* and at domains = 1 it still works, duplicates included *)
  let n = ref 0 in
  let r =
    Mcheck.Explore.explore ~max_nodes:2_000_000
      ~on_fingerprint:(fun _ -> incr n)
      (peterson ~fenced:true)
  in
  Alcotest.(check bool) "d=1 hook fired" true (!n >= r.Mcheck.Explore.nodes)

(* The reduction must earn its keep: on the fenced Peterson exhaustive
   check, POR explores at least 2x fewer nodes (the bench rows in
   BENCH_PR2.json record the measured counts). *)
let test_por_reduces_nodes () =
  let on = Mcheck.Explore.explore ~max_nodes:2_000_000 (peterson ~fenced:true)
  and off =
    Mcheck.Explore.explore ~max_nodes:2_000_000 ~por:false
      (peterson ~fenced:true)
  in
  Alcotest.(check bool) "por on: exhausted" true on.Mcheck.Explore.exhausted;
  Alcotest.(check bool) "por off: exhausted" true off.Mcheck.Explore.exhausted;
  Alcotest.(check bool)
    (Printf.sprintf "por-on nodes (%d) <= por-off nodes (%d) / 2"
       on.Mcheck.Explore.nodes off.Mcheck.Explore.nodes)
    true
    (2 * on.Mcheck.Explore.nodes <= off.Mcheck.Explore.nodes)

(* --- differential property: POR is verdict-invisible ------------------- *)

(* Random 2-process straight-line entry sections over three shared
   variables (plus a never-set park variable for conditional spins),
   explored exhaustively with and without the reduction under both
   orderings. No mutual exclusion is attempted, so exclusion violations
   abound; conditional spins make some programs spin-exhaust and some
   verify. Every run must exhaust and find the reference explorer's SET
   of violation kinds; without the reduction it must visit exactly the
   reference's states (node counts at 1, 2 and 4 domains, the state set
   at one), and with it a subset of them (fused chain intermediates are
   skipped, so containment — not equality — is the invariant). *)

type rop =
  | Rwrite of int * int
  | Rread of int
  | Rfence
  | Rcas of int * int * int
  | Rguard of int * int  (* read v; park (bounded spin) if it equals x *)

let rop_to_string = function
  | Rwrite (v, x) -> Printf.sprintf "w v%d %d" v x
  | Rread v -> Printf.sprintf "r v%d" v
  | Rfence -> "f"
  | Rcas (v, e, d) -> Printf.sprintf "cas v%d %d->%d" v e d
  | Rguard (v, x) -> Printf.sprintf "guard v%d=%d" v x

let gen_rop =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun v x -> Rwrite (v, x)) (int_range 0 2) (int_range 1 3));
        (3, map (fun v -> Rread v) (int_range 0 2));
        (2, return Rfence);
        (2,
         map3
           (fun v e d -> Rcas (v, e, d))
           (int_range 0 2) (int_range 0 2) (int_range 1 3));
        (2, map2 (fun v x -> Rguard (v, x)) (int_range 0 2) (int_range 0 1));
      ])

let gen_prog2 =
  QCheck.Gen.(
    triple
      (list_size (int_range 1 5) gen_rop)
      (list_size (int_range 1 5) gen_rop)
      bool)

let arb_prog2 =
  QCheck.make
    ~print:(fun (a, b, pso) ->
      Printf.sprintf "p0:[%s] p1:[%s] %s"
        (String.concat "; " (List.map rop_to_string a))
        (String.concat "; " (List.map rop_to_string b))
        (if pso then "PSO" else "TSO"))
    gen_prog2

let config_of_rops ?recovery ?crash_semantics (ops0, ops1, pso) =
  let layout = Layout.create () in
  let vars = Layout.array layout ~init:0 "v" 3 in
  let park = Layout.var layout ~init:0 "park" in
  let rec prog = function
    | [] -> unit
    | Rwrite (v, x) :: rest ->
        let* () = write vars.(v) x in
        prog rest
    | Rread v :: rest ->
        let* _ = read vars.(v) in
        prog rest
    | Rfence :: rest ->
        let* () = fence in
        prog rest
    | Rcas (v, e, d) :: rest ->
        let* _ = cas vars.(v) ~expected:e ~desired:d in
        prog rest
    | Rguard (v, x) :: rest ->
        let* y = read vars.(v) in
        if y = x then
          let* _ = spin_until ~fuel:1 park (fun b -> b = 1) in
          prog rest
        else prog rest
  in
  Config.make ~model:Config.Cc_wb
    ~ordering:(if pso then Config.Pso else Config.Tso)
    ?recovery:(Option.map (fun ops _p -> prog ops) recovery)
    ?crash_semantics ~check_exclusion:true ~n:2 ~layout
    ~entry:(fun p -> prog (if p = 0 then ops0 else ops1))
    ~exit_section:(fun _ -> Prog.unit)
    ()

let agrees_with_reference ?max_crashes ?max_aborts cfg_of =
  match
    Suite_reference.disagreements ?max_crashes ?max_aborts ~on_spin:`Violation
      cfg_of
  with
  | [] -> true
  | errors -> QCheck.Test.fail_report (String.concat "; " errors)

let prop_por_differential =
  QCheck.Test.make ~count:120 ~name:"por on/off: same verdict, subset states"
    arb_prog2 (fun progs ->
      agrees_with_reference (fun () -> config_of_rops progs))

(* --- differential property: crash faults ------------------------------- *)

(* Crash-capable extension of the generator: the same straight-line
   sections, plus an optional recovery section and a drawn crash
   semantics, so crash handling (buffer fate, recovery-section re-entry)
   is differentially fuzzed rather than hand-tested. *)
type crashy = {
  c_progs : rop list * rop list * bool;
  c_recovery : rop list option;
  c_sem : Config.crash_semantics;
  c_crashes : int;  (* adversary crash budget for the exploration *)
}

let gen_crashy =
  QCheck.Gen.(
    gen_prog2 >>= fun progs ->
    option (list_size (int_range 1 3) gen_rop) >>= fun c_recovery ->
    oneofl [ Config.Drop_buffer; Config.Flush_buffer; Config.Atomic_prefix ]
    >>= fun c_sem ->
    int_range 1 2 >>= fun c_crashes ->
    return { c_progs = progs; c_recovery; c_sem; c_crashes })

let arb_crashy =
  QCheck.make
    ~print:(fun c ->
      let a, b, pso = c.c_progs in
      Printf.sprintf "p0:[%s] p1:[%s] %s rec:[%s] %s crashes<=%d"
        (String.concat "; " (List.map rop_to_string a))
        (String.concat "; " (List.map rop_to_string b))
        (if pso then "PSO" else "TSO")
        (match c.c_recovery with
        | None -> "-"
        | Some r -> String.concat "; " (List.map rop_to_string r))
        (Config.crash_semantics_name c.c_sem)
        c.c_crashes)
    gen_crashy

let config_of_crashy c =
  config_of_rops ?recovery:c.c_recovery ~crash_semantics:c.c_sem c.c_progs

(* Same differential under a one-crash budget, over the crash generator's
   recovery sections and crash semantics: crash moves are pairwise
   dependent (shared budget) and suspend singleton-ample fusion, so the
   reduced crash exploration must still find the reference's verdicts
   and visit only states the reference reaches. *)
let prop_por_differential_crashes =
  QCheck.Test.make ~count:60
    ~name:"por on/off with max_crashes=1: same verdict, subset states"
    arb_crashy (fun c ->
      agrees_with_reference ~max_crashes:1 (fun () -> config_of_crashy c))

let suite =
  [
    check_equiv "peterson fenced" (fun () -> peterson ~fenced:true) Verified;
    check_equiv "peterson unfenced"
      (fun () -> peterson ~fenced:false)
      (Violation "exclusion");
    check_equiv "dekker" dekker Verified;
    check_equiv "mp litmus under PSO" mp_pso (Violation "exclusion");
    Alcotest.test_case "parallel driver is deterministic" `Quick
      test_parallel_deterministic;
    Alcotest.test_case "violation kind sets agree at max_violations=8" `Quick
      test_kind_set_equiv;
    Alcotest.test_case "on_fingerprint requires domains=1" `Quick
      test_on_fingerprint_rejects_domains;
    Alcotest.test_case "por reduces fenced-peterson nodes >= 2x" `Quick
      test_por_reduces_nodes;
    QCheck_alcotest.to_alcotest prop_por_differential;
    QCheck_alcotest.to_alcotest prop_por_differential_crashes;
  ]
