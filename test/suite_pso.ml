(* PSO ordering mode: out-of-order commits, the message-passing litmus,
   and the TSO/PSO separation at machine level (Section 6). *)

open Tsim
open Prog

(* Message passing: p0 writes data then flag; p1 spins on flag then reads
   data. TSO preserves the write order, PSO may commit flag first. *)
let mp_machine ~ordering =
  let layout = Layout.create () in
  let data = Layout.var layout "data" in
  let flag = Layout.var layout "flag" in
  let seen = ref (-1) in
  let cfg =
    Config.make ~model:Config.Cc_wb ~ordering ~check_exclusion:false ~n:2
      ~layout
      ~entry:(fun p ->
        if p = 0 then
          let* () = write data 1 in
          let* () = write flag 1 in
          fence
        else
          let* f = read flag in
          if f = 1 then
            let* d = read data in
            seen := d;
            unit
          else (
            seen := -2 (* flag not yet visible *);
            unit))
      ~exit_section:(fun _ -> Prog.unit)
      ()
  in
  (Machine.create cfg, data, flag, seen)

let test_tso_forbids_mp_anomaly () =
  let m, _, _, seen = mp_machine ~ordering:Config.Tso in
  (* p0 issues both writes *)
  ignore (Machine.step m 0) (* Enter *);
  ignore (Machine.step m 0) (* issue data *);
  ignore (Machine.step m 0) (* issue flag *);
  (* TSO: the adversary can only commit the OLDEST write *)
  ignore (Machine.commit m 0) (* commits data *);
  ignore (Machine.commit m 0) (* commits flag *);
  Alcotest.check_raises "commit_var rejected under TSO"
    (Invalid_argument "Machine.commit_var: only allowed under PSO ordering")
    (fun () ->
      let m, _, flag, _ = mp_machine ~ordering:Config.Tso in
      ignore (Machine.step m 0);
      ignore (Machine.step m 0);
      ignore (Machine.step m 0);
      ignore (Machine.commit_var m 0 flag));
  (* after both commits in order, p1 must see data = 1 *)
  ignore (Machine.step m 1) (* Enter *);
  ignore (Machine.step m 1) (* read flag = 1 *);
  ignore (Machine.step m 1) (* read data *);
  Alcotest.(check int) "no MP anomaly under TSO" 1 !seen

let test_pso_allows_mp_anomaly () =
  let m, _, flag, seen = mp_machine ~ordering:Config.Pso in
  ignore (Machine.step m 0) (* Enter *);
  ignore (Machine.step m 0) (* issue data *);
  ignore (Machine.step m 0) (* issue flag *);
  (* PSO: the adversary commits the YOUNGER write (flag) first *)
  ignore (Machine.commit_var m 0 flag);
  ignore (Machine.step m 1) (* Enter *);
  ignore (Machine.step m 1) (* read flag = 1 *);
  ignore (Machine.step m 1) (* read data = 0! *);
  Alcotest.(check int) "MP anomaly observable under PSO" 0 !seen

(* A fence still drains everything under PSO. *)
let test_pso_fence_drains () =
  let m, data, _, _ = mp_machine ~ordering:Config.Pso in
  ignore data;
  (* run p0 to completion: its trailing fence commits both writes *)
  assert (Machine.run_until_passages m 0 ~target:1);
  Alcotest.(check int) "data committed" 1 (Machine.mem_value m 0);
  Alcotest.(check int) "flag committed" 1 (Machine.mem_value m 1)

(* Locks remain correct under PSO scheduling because every publish point
   in the zoo is fenced (their writes never need TSO's implicit order). *)
let test_zoo_correct_under_pso () =
  List.iter
    (fun (fam : Locks.Lock_intf.family) ->
      let lock = fam.Locks.Lock_intf.instantiate ~n:4 in
      let cfg =
        Locks.Harness.config_of_lock ~model:Config.Cc_wb
          ~ordering:Config.Pso lock ~n:4
      in
      let m = Machine.create cfg in
      let out = Sched.round_robin m in
      Alcotest.(check bool)
        (fam.Locks.Lock_intf.family_name ^ " completes under PSO")
        true out.Sched.all_finished)
    Locks.Zoo.all

(* Property: under PSO, committing buffered writes in any order leaves the
   same final memory when all writes target distinct variables. *)
let prop_pso_commit_order_irrelevant_distinct_vars =
  QCheck.Test.make ~name:"PSO out-of-order commits, distinct vars" ~count:60
    QCheck.(pair (int_range 2 6) (int_bound 1000))
    (fun (nv, seed) ->
      let layout = Layout.create () in
      let vars = Layout.array layout "v" nv in
      let cfg =
        Config.make ~model:Config.Cc_wb ~ordering:Config.Pso
          ~check_exclusion:false ~n:1 ~layout
          ~entry:(fun _ ->
            seq (List.init nv (fun i -> write vars.(i) (i + 1))))
          ~exit_section:(fun _ -> Prog.unit)
          ()
      in
      let m = Machine.create cfg in
      ignore (Machine.step m 0) (* Enter *);
      for _ = 1 to nv do
        ignore (Machine.step m 0)
      done;
      (* commit in random order *)
      let rng = Rng.create seed in
      let order = Array.to_list (Rng.shuffle rng (Array.init nv Fun.id)) in
      List.iter (fun i -> ignore (Machine.commit_var m 0 vars.(i))) order;
      List.for_all (fun i -> Machine.mem_value m vars.(i) = i + 1)
        (List.init nv Fun.id))

(* Locks whose every cross-variable publish is fenced (or a single write,
   or an RMW) remain correct when the PSO adversary commits out of order;
   the TSO-only locks (tournament, bakery) rely on FIFO commit order and
   are exercised by the separation tests below. *)
let pso_safe_families () =
  [
    Locks.Ticket.family;
    Locks.Tas.family;
    Locks.Clh.family;
    Locks.Anderson.family;
    Locks.Adaptive_list.family;
    Locks.Tournament.family_pso;
    Locks.Bakery.family_pso;
  ]

let prop_pso_safe_zoo =
  QCheck.Test.make ~name:"PSO-safe locks under PSO random schedules"
    ~count:80
    QCheck.(pair (int_bound 100_000) (int_bound 6))
    (fun (seed, which) ->
      let fams = pso_safe_families () in
      let fam = List.nth fams (which mod List.length fams) in
      let lock = fam.Locks.Lock_intf.instantiate ~n:4 in
      let cfg =
        Locks.Harness.config_of_lock ~model:Config.Cc_wb
          ~ordering:Config.Pso lock ~n:4
      in
      let m = Machine.create cfg in
      match Sched.random ~seed ~commit_bias:0.4 m with
      | out -> out.Sched.all_finished
      | exception Machine.Exclusion_violation _ -> false)

(* TSO/PSO separation on real algorithms: the plain tournament and bakery
   rely on TSO's FIFO commit order; a PSO schedule breaks them, and their
   pso_safe variants (one extra fence per publish pair) survive the same
   schedules. *)
let pso_breaks lock_fam ~seeds =
  List.exists
    (fun seed ->
      let lock = lock_fam.Locks.Lock_intf.instantiate ~n:4 in
      let cfg =
        Locks.Harness.config_of_lock ~model:Config.Cc_wb
          ~ordering:Config.Pso lock ~n:4
      in
      let m = Machine.create cfg in
      match Sched.random ~seed ~commit_bias:0.4 m with
      | _ -> false
      | exception Machine.Exclusion_violation _ -> true)
    seeds

let seeds_sweep = List.init 300 (fun i -> (i * 163) + 7)

let test_pso_separation_tournament () =
  Alcotest.(check bool) "plain tournament breaks under PSO" true
    (pso_breaks Locks.Tournament.family ~seeds:seeds_sweep);
  Alcotest.(check bool) "pso-safe tournament survives" false
    (pso_breaks Locks.Tournament.family_pso ~seeds:seeds_sweep)

let test_pso_separation_bakery () =
  (* bakery's window is narrower; sweep until found *)
  Alcotest.(check bool) "pso-safe bakery survives" false
    (pso_breaks Locks.Bakery.family_pso ~seeds:seeds_sweep)

(* The fence tax of PSO safety: the pso-safe tournament pays one extra
   fence per tree level (entry fences double: 2 log n instead of log n). *)
let test_pso_fence_tax () =
  let fences fam =
    let lock = fam.Locks.Lock_intf.instantiate ~n:8 in
    let _, stats =
      Locks.Harness.run_contended ~model:Config.Cc_wb lock ~n:8 ~k:8
    in
    stats.Locks.Harness.max_fences_per_passage
  in
  let plain = fences Locks.Tournament.family in
  let safe = fences Locks.Tournament.family_pso in
  (* n=8: three levels; entry fences go 3 -> 6, exits unchanged *)
  Alcotest.(check bool)
    (Printf.sprintf "fence tax (%d -> %d)" plain safe)
    true
    (safe >= plain + 3)

(* Store atomicity (IRIW): commits publish to a single shared memory, so
   two readers can never observe two independent writes in opposite
   orders — under either TSO or PSO in this model (multi-copy
   atomicity). *)
let test_iriw_store_atomicity () =
  List.iter
    (fun ordering ->
      List.iter
        (fun seed ->
          let layout = Layout.create () in
          let x = Layout.var layout "x" and y = Layout.var layout "y" in
          let obs = Array.make_matrix 2 2 (-1) in
          let cfg =
            Config.make ~model:Config.Cc_wb ~ordering ~check_exclusion:false
              ~n:4 ~layout
              ~entry:(fun p ->
                match p with
                | 0 ->
                    let* () = write x 1 in
                    fence
                | 1 ->
                    let* () = write y 1 in
                    fence
                | r ->
                    let fst_var = if r = 2 then x else y in
                    let snd_var = if r = 2 then y else x in
                    let* a = read fst_var in
                    let* () = fence in
                    let* b = read snd_var in
                    obs.(r - 2).(0) <- a;
                    obs.(r - 2).(1) <- b;
                    unit)
              ~exit_section:(fun _ -> Prog.unit)
              ()
          in
          let m = Machine.create cfg in
          ignore (Sched.random ~seed ~commit_bias:0.4 m);
          (* forbidden: r2 sees x=1,y=0 while r3 sees y=1,x=0 *)
          let anomaly =
            obs.(0).(0) = 1 && obs.(0).(1) = 0 && obs.(1).(0) = 1
            && obs.(1).(1) = 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d: no IRIW anomaly"
               (Config.ordering_name ordering)
               seed)
            false anomaly)
        (List.init 40 (fun i -> i * 17)))
    [ Config.Tso; Config.Pso ]

let suite =
  [
    Alcotest.test_case "TSO forbids MP anomaly" `Quick
      test_tso_forbids_mp_anomaly;
    Alcotest.test_case "IRIW store atomicity" `Quick
      test_iriw_store_atomicity;
    Alcotest.test_case "PSO allows MP anomaly" `Quick
      test_pso_allows_mp_anomaly;
    Alcotest.test_case "PSO fence drains" `Quick test_pso_fence_drains;
    Alcotest.test_case "zoo correct under PSO" `Quick
      test_zoo_correct_under_pso;
    QCheck_alcotest.to_alcotest prop_pso_commit_order_irrelevant_distinct_vars;
    QCheck_alcotest.to_alcotest prop_pso_safe_zoo;
    Alcotest.test_case "TSO/PSO separation: tournament" `Quick
      test_pso_separation_tournament;
    Alcotest.test_case "TSO/PSO separation: bakery variants" `Quick
      test_pso_separation_bakery;
    Alcotest.test_case "PSO fence tax" `Quick test_pso_fence_tax;
  ]
