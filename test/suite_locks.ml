(* Lock correctness and complexity-profile tests.

   Every lock in the zoo must provide mutual exclusion and progress under
   round-robin and a battery of random schedules (the machine raises
   [Exclusion_violation] if two CS events are ever simultaneously enabled).
   The complexity tests pin the headline RMR/fence profiles the evaluation
   table (E6) relies on. *)

open Tsim
open Locks

let models = [ Config.Dsm; Config.Cc_wt; Config.Cc_wb ]

let check_run (stats : Harness.run_stats) =
  Alcotest.(check bool)
    (Printf.sprintf "%s/%s exclusion" stats.Harness.lock_name
       (Config.mem_model_name stats.Harness.model))
    true stats.Harness.exclusion_ok;
  Alcotest.(check bool)
    (Printf.sprintf "%s/%s completed" stats.Harness.lock_name
       (Config.mem_model_name stats.Harness.model))
    true stats.Harness.completed

let exclusion_case (fam : Lock_intf.family) =
  Alcotest.test_case
    (Printf.sprintf "%s: exclusion+progress (rr, random)" fam.Lock_intf.family_name)
    `Quick
    (fun () ->
      List.iter
        (fun model ->
          (* round robin *)
          let lock = fam.Lock_intf.instantiate ~n:6 in
          let _, stats = Harness.run_contended ~model lock ~n:6 ~k:6 in
          check_run stats;
          Alcotest.(check int) "all CSs happened" 6 stats.Harness.cs_entries;
          (* random schedules, several seeds *)
          List.iter
            (fun seed ->
              let lock = fam.Lock_intf.instantiate ~n:5 in
              let _, stats =
                Harness.run_contended ~model ~schedule:(Harness.Rand seed)
                  lock ~n:5 ~k:5
              in
              check_run stats;
              Alcotest.(check int) "all CSs happened" 5
                stats.Harness.cs_entries)
            [ 1; 7; 13; 99 ])
        models)

let multi_passage_case (fam : Lock_intf.family) =
  Alcotest.test_case
    (Printf.sprintf "%s: multi-passage" fam.Lock_intf.family_name)
    `Quick
    (fun () ->
      let lock = fam.Lock_intf.instantiate ~n:4 in
      let _, stats =
        Harness.run_contended ~model:Config.Cc_wb ~max_passages:3 lock ~n:4
          ~k:4
      in
      check_run stats;
      Alcotest.(check int) "12 passages" 12 stats.Harness.passages)

(* Solo passages must be cheap and always succeed (weak obstruction
   freedom: a process running alone finishes). *)
let solo_case (fam : Lock_intf.family) =
  Alcotest.test_case
    (Printf.sprintf "%s: solo passage" fam.Lock_intf.family_name)
    `Quick
    (fun () ->
      List.iter
        (fun model ->
          let lock = fam.Lock_intf.instantiate ~n:8 in
          let _, stats = Harness.run_contended ~model lock ~n:8 ~k:1 in
          check_run stats;
          Alcotest.(check int) "one CS" 1 stats.Harness.cs_entries)
        models)

(* --- complexity profiles (CC-WB, round robin) ------------------------- *)

let max_rmrs lock_fam ~n ~k =
  let lock = lock_fam.Lock_intf.instantiate ~n in
  let _, stats = Harness.run_contended ~model:Config.Cc_wb lock ~n ~k in
  check_run stats;
  stats.Harness.max_rmrs_per_passage

let max_fences lock_fam ~n ~k =
  let lock = lock_fam.Lock_intf.instantiate ~n in
  let _, stats = Harness.run_contended ~model:Config.Cc_wb lock ~n ~k in
  check_run stats;
  stats.Harness.max_fences_per_passage

(* Ticket lock: O(1) fences per passage regardless of contention. *)
let test_ticket_constant_fences () =
  let f8 = max_fences Ticket.family ~n:8 ~k:8 in
  let f32 = max_fences Ticket.family ~n:32 ~k:32 in
  Alcotest.(check bool) "<= 2 fences" true (f8 <= 2 && f32 <= 2)

(* Tournament: RMRs grow ~ log n, and stay well below n. *)
let test_tournament_log_rmrs () =
  let r4 = max_rmrs Tournament.family ~n:4 ~k:1 in
  let r64 = max_rmrs Tournament.family ~n:64 ~k:1 in
  (* solo passage: O(log n) with a small constant *)
  Alcotest.(check bool)
    (Printf.sprintf "solo rmrs grow slowly (%d -> %d)" r4 r64)
    true
    (r64 <= r4 * 4 && r64 < 64)

(* Bakery: Θ(n) RMRs even solo — non-adaptive. *)
let test_bakery_linear_rmrs () =
  let r8 = max_rmrs Bakery.family ~n:8 ~k:1 in
  let r64 = max_rmrs Bakery.family ~n:64 ~k:1 in
  Alcotest.(check bool)
    (Printf.sprintf "rmrs scale with n (%d -> %d)" r8 r64)
    true
    (r64 >= 60 && r8 >= 7 && r64 > 4 * r8)

(* Bakery: O(1) fences regardless of n (non-adaptive constant-fence). *)
let test_bakery_constant_fences () =
  let f8 = max_fences Bakery.family ~n:8 ~k:8 in
  let f32 = max_fences Bakery.family ~n:32 ~k:32 in
  Alcotest.(check bool)
    (Printf.sprintf "constant fences (%d, %d)" f8 f32)
    true
    (f8 <= 4 && f32 <= 4)

(* Fast-path lock: solo passage is O(1) in n. *)
let test_fastpath_solo_constant () =
  let r8 = max_rmrs Fastpath.family ~n:8 ~k:1 in
  let r128 = max_rmrs Fastpath.family ~n:128 ~k:1 in
  Alcotest.(check bool)
    (Printf.sprintf "solo O(1) (%d vs %d)" r8 r128)
    true (r128 <= r8 + 2)

(* Adaptive list lock: RMRs scale with contention k, not with n. *)
let test_adaptive_list_adaptivity () =
  let r_low = max_rmrs Adaptive_list.family ~n:128 ~k:2 in
  let r_high = max_rmrs Adaptive_list.family ~n:128 ~k:32 in
  Alcotest.(check bool)
    (Printf.sprintf "rmrs grow with k (%d -> %d)" r_low r_high)
    true
    (r_low <= 12 && r_high > r_low);
  (* and independent of n at fixed k *)
  let r_small_n = max_rmrs Adaptive_list.family ~n:8 ~k:2 in
  Alcotest.(check bool)
    (Printf.sprintf "independent of n (%d vs %d)" r_small_n r_low)
    true
    (abs (r_low - r_small_n) <= 2)

(* Adaptive tree: solo passages are O(1) independent of n (the fast path:
   stop at splitter (0,0), climb the constant-size fast tree), while the
   plain tournament's solo cost grows with n. *)
let test_adaptive_tree_solo_constant () =
  let r16 = max_rmrs Adaptive_tree.family ~n:16 ~k:1 in
  let r256 = max_rmrs Adaptive_tree.family ~n:256 ~k:1 in
  Alcotest.(check bool)
    (Printf.sprintf "solo O(1) in n (%d vs %d)" r16 r256)
    true
    (r256 <= r16 + 2);
  let t16 = max_rmrs Tournament.family ~n:16 ~k:1 in
  let t256 = max_rmrs Tournament.family ~n:256 ~k:1 in
  Alcotest.(check bool)
    (Printf.sprintf "tournament grows (%d -> %d) but adaptive-tree doesn't"
       t16 t256)
    true
    (t256 > t16 && r256 < t256)

(* Cascade: genuinely adaptive — per-passage RMRs at fixed contention k
   are (nearly) independent of n, with only the O(log log n) arbitration
   depth growing. *)
let test_cascade_adaptivity () =
  let r k n = max_rmrs Cascade.family ~n ~k in
  let r_small = r 2 16 and r_big = r 2 64 in
  Alcotest.(check bool)
    (Printf.sprintf "k=2: n=16 -> %d, n=64 -> %d (loglog growth only)"
       r_small r_big)
    true
    (r_big <= r_small + 6);
  (* and it grows with k at fixed n *)
  let r1 = r 1 32 and r8 = r 8 32 in
  Alcotest.(check bool)
    (Printf.sprintf "grows with k (%d -> %d)" r1 r8)
    true (r8 > r1)

(* MCS: local-spin — O(1) RMRs per passage in DSM under round robin. *)
let test_mcs_local_spin_dsm () =
  let lock = Mcs.family.Lock_intf.instantiate ~n:8 in
  let _, stats = Harness.run_contended ~model:Config.Dsm lock ~n:8 ~k:8 in
  check_run stats;
  Alcotest.(check bool)
    (Printf.sprintf "max %d rmrs" stats.Harness.max_rmrs_per_passage)
    true
    (stats.Harness.max_rmrs_per_passage <= 8)

(* Property: random schedules never violate exclusion, for any zoo lock. *)
let prop_random_schedules =
  QCheck.Test.make ~name:"zoo exclusion under random schedules" ~count:150
    QCheck.(pair (int_bound 100_000) (int_bound 9))
    (fun (seed, which) ->
      let fam = List.nth Zoo.all (which mod List.length Zoo.all) in
      let lock = fam.Lock_intf.instantiate ~n:4 in
      let _, stats =
        Harness.run_contended ~model:Config.Cc_wb
          ~schedule:(Harness.Rand seed) lock ~n:4 ~k:4
      in
      stats.Harness.exclusion_ok && stats.Harness.completed
      && stats.Harness.cs_entries = 4)

(* Property: same, multi-passage and across memory models (the stale-state
   hazards of tree locks show up on re-entry). *)
let prop_random_multipassage =
  QCheck.Test.make ~name:"zoo exclusion, multi-passage random" ~count:100
    QCheck.(triple (int_bound 100_000) (int_bound 8) (int_bound 2))
    (fun (seed, which, model_ix) ->
      let fam =
        List.nth Zoo.multi_passage (which mod List.length Zoo.multi_passage)
      in
      let model = List.nth models (model_ix mod 3) in
      let lock = fam.Lock_intf.instantiate ~n:3 in
      let _, stats =
        Harness.run_contended ~model ~max_passages:3
          ~schedule:(Harness.Rand seed) lock ~n:3 ~k:3
      in
      stats.Harness.exclusion_ok && stats.Harness.completed
      && stats.Harness.cs_entries = 9)

(* What [Hashtbl.hash_param 128 256] sees of a value, by a walk that
   mirrors the OCaml 5.1 runtime's breadth-first [caml_hash]: the
   meaningful values it mixes (integers, strings, floats, custom blocks,
   the words of a closure before its environment; the hash stops after
   128) and the values it queues (the root and every field of a block or
   closure environment; the runtime's queue holds 256 values whatever the
   second argument says). Queueing stops at 257, enough to tell that a
   limit is passed. Returns (meaningful, queued). *)
let hash_horizon (root : Obj.t) =
  let cap = 257 in
  let queue = Array.make cap (Obj.repr 0) in
  queue.(0) <- root;
  let wr = ref 1 and meaningful = ref 0 in
  let enqueue (v : Obj.t) i =
    if !wr < cap then begin
      queue.(!wr) <- Obj.field v i;
      incr wr
    end
  in
  let rec visit (v : Obj.t) =
    if Obj.is_int v then incr meaningful
    else
      let tag = Obj.tag v in
      if tag = Obj.infix_tag then
        (* the enclosing closure of a mutually recursive definition *)
        let offset = Obj.size v * (Sys.word_size / 8) in
        visit (Obj.add_offset v (Int32.of_int (-offset)))
      else if tag = Obj.forward_tag then visit (Obj.field v 0)
      else if tag = Obj.closure_tag then begin
        let info : int = Obj.obj (Obj.field v 1) in
        let start_env = info land ((1 lsl 55) - 1) in
        meaningful := !meaningful + start_env;
        for i = start_env to Obj.size v - 1 do enqueue v i done
      end
      else if
        tag = Obj.string_tag || tag = Obj.double_tag
        || tag = Obj.double_array_tag || tag = Obj.object_tag
        || tag = Obj.custom_tag
      then incr meaningful
      else if tag < Obj.no_scan_tag && tag <> Obj.cont_tag then
        for i = 0 to Obj.size v - 1 do enqueue v i done
  in
  let rd = ref 0 in
  while !rd < !wr do
    visit queue.(!rd);
    incr rd
  done;
  (!meaningful, !wr)

(* [Machine.hash_cont] must see each process's whole continuation, or two
   states that differ past its horizon get one fingerprint. Random walks
   (with one crash and one abort where the lock has those sections) check
   every continuation of every zoo family at n=2 and n=3, and of the
   tournament at n=4 and n=8.

   First, the runtime agrees with the walker's model on lists: 127
   integers and the final [] are 128 meaningful values in 255 queued
   ones, and the hash sees the last element; the queue stays at 256
   however far the second argument raises it. *)
let test_continuations_within_hash_horizon () =
  let l = List.init 127 Fun.id in
  Alcotest.(check (pair int int)) "127-list" (128, 255)
    (hash_horizon (Obj.repr l));
  let l' = List.mapi (fun i x -> if i = 126 then -1 else x) l in
  Alcotest.(check bool) "last element hashed" true
    (Hashtbl.hash_param 128 256 l <> Hashtbl.hash_param 128 256 l');
  Alcotest.(check (pair int int)) "128-list" (129, 257)
    (hash_horizon (Obj.repr (List.init 128 Fun.id)));
  let long = List.init 1000 Fun.id in
  Alcotest.(check int) "queue capped at 256"
    (Hashtbl.hash_param 1000 256 long)
    (Hashtbl.hash_param 1000 1000 long);
  let sizes (fam : Lock_intf.family) =
    match fam.Lock_intf.family_name with
    | "tournament" -> [ 2; 3; 4; 8 ]
    | _ when List.memq fam Zoo.two_process -> [ 2 ]
    | _ -> [ 2; 3 ]
  in
  let check_family (fam : Lock_intf.family) n =
    let lock = fam.Lock_intf.instantiate ~n in
    let cfg = Harness.config_of_lock lock ~n in
    let max_crashes = if lock.Lock_intf.recovery = None then 0 else 1 in
    let max_aborts = if lock.Lock_intf.abort = None then 0 else 1 in
    let over = ref 0 and most = ref 0 and longest = ref 0 in
    let rec walk rng m steps =
      for p = 0 to n - 1 do
        let meaningful, queued =
          hash_horizon (Obj.repr (Machine.proc m p).Machine.cont)
        in
        if meaningful > 128 || queued > 256 then incr over;
        most := max !most meaningful;
        longest := max !longest queued
      done;
      match Mcheck.Explore.enabled_moves ~max_crashes ~max_aborts m with
      | moves when moves <> [] && steps > 0 -> (
          let i = Random.State.int rng (List.length moves) in
          match Mcheck.Explore.apply m (List.nth moves i) with
          | () -> walk rng m (steps - 1)
          | exception (Machine.Exclusion_violation _ | Prog.Spin_exhausted _)
            -> ())
      | _ -> ()
    in
    for seed = 1 to 20 do
      walk (Random.State.make [| seed; n |]) (Machine.create cfg) 400
    done;
    if !over = 0 then []
    else
      [ Printf.sprintf "%s n=%d: %d continuations past it (up to %d \
                        meaningful, %d queued)"
          fam.Lock_intf.family_name n !over !most !longest ]
  in
  match
    List.concat_map
      (fun fam -> List.concat_map (check_family fam) (sizes fam))
      Zoo.(all @ two_process @ recoverable @ abortable)
  with
  | [] -> ()
  | bad -> Alcotest.failf "hash horizon: %s" (String.concat "; " bad)

let suite =
  List.concat_map
    (fun fam -> [ exclusion_case fam; solo_case fam ])
    Zoo.all
  @ List.map multi_passage_case Zoo.multi_passage
  @ [
      Alcotest.test_case "ticket: constant fences" `Quick
        test_ticket_constant_fences;
      Alcotest.test_case "tournament: log RMRs" `Quick
        test_tournament_log_rmrs;
      Alcotest.test_case "bakery: linear RMRs" `Quick test_bakery_linear_rmrs;
      Alcotest.test_case "bakery: constant fences" `Quick
        test_bakery_constant_fences;
      Alcotest.test_case "fastpath: solo O(1)" `Quick
        test_fastpath_solo_constant;
      Alcotest.test_case "adaptive-list: adaptivity" `Quick
        test_adaptive_list_adaptivity;
      Alcotest.test_case "adaptive-tree: solo O(1)" `Quick
        test_adaptive_tree_solo_constant;
      Alcotest.test_case "cascade: adaptivity" `Quick test_cascade_adaptivity;
      Alcotest.test_case "mcs: local spin in DSM" `Quick
        test_mcs_local_spin_dsm;
      QCheck_alcotest.to_alcotest prop_random_schedules;
      QCheck_alcotest.to_alcotest prop_random_multipassage;
    ]

(* Ticket lock is FIFO: the CS entry order equals the FAA ticket order,
   under any schedule. *)
let test_ticket_fifo () =
  List.iter
    (fun seed ->
      let lock = Ticket.family.Lock_intf.instantiate ~n:5 in
      let m, stats =
        Harness.run_contended ~model:Config.Cc_wb
          ~schedule:(Harness.Rand seed) lock ~n:5 ~k:5
      in
      Alcotest.(check bool) "completed" true stats.Harness.completed;
      (* reconstruct orders from the trace *)
      let tr = Execution.Trace.of_machine m in
      let tickets = ref [] and css = ref [] in
      Execution.Trace.iter
        (fun (e : Event.t) ->
          match e.Event.kind with
          | Event.Faa_ev _ -> tickets := e.Event.pid :: !tickets
          | Event.Cs -> css := e.Event.pid :: !css
          | _ -> ())
        tr;
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d: FIFO" seed)
        (List.rev !tickets) (List.rev !css))
    [ 1; 9; 42; 777 ]

(* Prog combinators. *)
let test_prog_combinators () =
  let layout = Config.Cc_wb in
  ignore layout;
  let l = Tsim.Layout.create () in
  let v = Tsim.Layout.var l "v" in
  let acc = ref [] in
  let cfg =
    Config.make ~model:Config.Cc_wb ~check_exclusion:false ~n:1 ~layout:l
      ~entry:(fun _ ->
        let open Prog in
        let* () = for_ 1 4 (fun i -> write v i) in
        let* x = repeat_until (faa v 1) (fun x -> x >= 6) in
        acc := [ x ];
        let+ y = read v in
        acc := y :: !acc)
      ~exit_section:(fun _ -> Prog.unit)
      ()
  in
  let m = Machine.create cfg in
  assert (Machine.run_until_passages m 0 ~target:1);
  (* for_ wrote 1..4 (buffered, coalesced to 4); faa drained (v=4) and
     looped 4,5,6 -> stops at 6 having incremented to 7 *)
  Alcotest.(check (list int)) "combinators" [ 7; 6 ] !acc;
  Alcotest.(check bool) "head_to_string" true
    (String.length (Prog.head_to_string (Prog.read v)) > 0)

(* Deep fuzz (runs in ~seconds): many random schedules across the whole
   zoo and all memory models; registered Slow so -q skips it. *)
let deep_fuzz_case =
  Alcotest.test_case "deep fuzz: zoo x models x 300 schedules" `Slow
    (fun () ->
      let rng = Rng.create 20260704 in
      for _ = 1 to 300 do
        let fam = List.nth Zoo.all (Rng.int rng (List.length Zoo.all)) in
        let model = List.nth models (Rng.int rng 3) in
        let lock = fam.Lock_intf.instantiate ~n:4 in
        let seed = Rng.int rng 1_000_000 in
        let _, stats =
          Harness.run_contended ~model ~schedule:(Harness.Rand seed) lock
            ~n:4 ~k:4
        in
        if not (stats.Harness.exclusion_ok && stats.Harness.completed) then
          Alcotest.fail
            (Printf.sprintf "%s/%s seed %d: exclusion=%b completed=%b"
               fam.Lock_intf.family_name
               (Config.mem_model_name model)
               seed stats.Harness.exclusion_ok stats.Harness.completed)
      done)

let suite =
  suite
  @ [
      Alcotest.test_case "ticket FIFO order" `Quick test_ticket_fifo;
      Alcotest.test_case "prog combinators" `Quick test_prog_combinators;
      deep_fuzz_case;
      Alcotest.test_case "continuations within the hash horizon" `Quick
        test_continuations_within_hash_horizon;
    ]
