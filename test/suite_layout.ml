(* Layout and config edge cases, plus additional bounds coverage. *)

open Tsim

let test_layout_basics () =
  let l = Layout.create () in
  Alcotest.(check int) "empty" 0 (Layout.size l);
  let a = Layout.var l ~owner:2 ~init:7 "a" in
  let arr = Layout.array l ~owner_fn:(fun i -> Some i) "b" 3 in
  let m = Layout.matrix l ~init:1 "c" 2 2 in
  Alcotest.(check int) "size" 8 (Layout.size l);
  Alcotest.(check string) "name" "a" (Layout.name l a);
  Alcotest.(check int) "init" 7 (Layout.init l a);
  Alcotest.(check (option int)) "owner" (Some 2) (Layout.owner l a);
  Alcotest.(check string) "array naming" "b[1]" (Layout.name l arr.(1));
  Alcotest.(check string) "matrix naming" "c[1][0]" (Layout.name l m.(1).(0));
  Alcotest.(check int) "matrix init" 1 (Layout.init l m.(0).(1));
  Alcotest.(check bool) "local" true (Layout.is_local l 2 a);
  Alcotest.(check bool) "remote" true (Layout.is_remote l 0 a);
  Alcotest.(check bool) "unowned remote to all" true
    (Layout.is_remote l 0 m.(0).(0))

(* Mixed declarations: ids run on across blocks, an empty block declares
   nothing, and name/init/owner hold at each block's first and last id. *)
let test_layout_blocks () =
  let l = Layout.create () in
  let a = Layout.var l "a" in
  let b =
    Layout.block l ~init:3
      ~owner_fn:(fun i -> if i mod 2 = 0 then Some i else None)
      (fun i -> Printf.sprintf "b%d" i)
      4
  in
  let empty = Layout.block l (fun _ -> Alcotest.fail "empty block named") 0 in
  let c = Layout.array l ~init:9 "c" 2 in
  let d = Layout.block l ~owner_fn:(fun i -> Some (10 + i)) (fun i -> "d" ^ string_of_int i) 3 in
  Alcotest.(check (list int)) "first ids" [ 0; 1; 5; 5; 7 ] [ a; b; empty; c.(0); d ];
  Alcotest.(check int) "size" 10 (Layout.size l);
  Alcotest.(check (list string)) "names in id order"
    [ "a"; "b0"; "b1"; "b2"; "b3"; "c[0]"; "c[1]"; "d0"; "d1"; "d2" ]
    (List.init 10 (Layout.name l));
  Alcotest.(check (list int)) "inits at block edges" [ 0; 3; 3; 9; 9; 0; 0 ]
    (List.map (Layout.init l) [ a; b; b + 3; c.(0); c.(1); d; d + 2 ]);
  Alcotest.(check (list (option int))) "owners at block edges"
    [ None; Some 0; None; None; None; Some 10; Some 12 ]
    (List.map (Layout.owner l) [ a; b; b + 3; c.(0); c.(1); d; d + 2 ]);
  Alcotest.(check (array int)) "initial memory" [| 0; 3; 3; 3; 3; 9; 9; 0; 0; 0 |]
    (Layout.initial_memory l);
  let seen = ref [] in
  Layout.iter l (fun v info -> seen := (v, info) :: !seen);
  Alcotest.(check bool) "iter = info in id order" true
    (List.rev !seen = List.init 10 (fun v -> (v, Layout.info l v)));
  Alcotest.check_raises "id past the end"
    (Invalid_argument "Layout: variable 10 out of range") (fun () ->
      ignore (Layout.name l 10));
  Alcotest.check_raises "negative id"
    (Invalid_argument "Layout: variable -1 out of range") (fun () ->
      ignore (Layout.owner l (-1)));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Layout.block: negative count") (fun () ->
      ignore (Layout.block l (fun _ -> "x") (-1)))

(* Names are rendered on demand: declaring, sizing, init, owner and the
   initial memory never call a block's name function. *)
let test_layout_names_on_demand () =
  let calls = ref 0 in
  let l = Layout.create () in
  let v =
    Layout.block l ~init:1 (fun i -> incr calls; "v" ^ string_of_int i) 1000
  in
  ignore (Layout.size l, Layout.init l (v + 999), Layout.owner l v);
  ignore (Layout.initial_memory l);
  Alcotest.(check int) "no name rendered" 0 !calls;
  Alcotest.(check string) "rendered when asked" "v999" (Layout.name l (v + 999));
  Alcotest.(check int) "one name rendered" 1 !calls

(* Every zoo layout, dumped one "family n id name init owner" line per
   variable (owner "-" when unowned), n-major; two-process locks exist at
   n = 2 only. The digests were taken before variables were declared in
   blocks: a change to any id, name, init or owner shows here. *)
let layout_dump families ~extra =
  let buf = Buffer.create (1 lsl 20) in
  let dump (fam : Locks.Lock_intf.family) n =
    let l = (fam.Locks.Lock_intf.instantiate ~n).Locks.Lock_intf.layout in
    Layout.iter l (fun v info ->
        if Layout.info l v <> info then
          Alcotest.failf "%s n=%d: info %d differs from iter's" fam.Locks.Lock_intf.family_name n v;
        Printf.bprintf buf "%s %d %d %s %d %s\n" fam.Locks.Lock_intf.family_name n v
          info.Layout.name info.Layout.init
          (match info.Layout.owner with None -> "-" | Some p -> string_of_int p))
  in
  List.iter
    (fun n ->
      List.iter
        (fun fam -> if n = 2 || not (List.memq fam Locks.Zoo.two_process) then dump fam n)
        families)
    [ 2; 3; 5; 16 ];
  List.iter (fun (fam, n) -> dump fam n) extra;
  let s = Buffer.contents buf in
  let lines = List.length (String.split_on_char '\n' s) - 1 in
  (lines, Digest.to_hex (Digest.string s))

let test_zoo_layouts_unchanged () =
  Alcotest.(check (pair int string)) "Zoo.all"
    (11_720, "c4443f48cc7b7882d093d143ad43cb69")
    (layout_dump Locks.Zoo.all ~extra:[]);
  Alcotest.(check (pair int string)) "every family, plus cascade n=64"
    (143_105, "3356a7fd60514a066f10180fe6e9fc09")
    (layout_dump
       Locks.Zoo.(all @ two_process @ recoverable @ abortable)
       ~extra:[ (Locks.Cascade.family, 64) ])

(* Words allocated so far, minor plus major (a promoted word counts
   twice, which only makes a bound stricter). Emptying the minor heap
   first brings the counters up to date. *)
let allocated_words () =
  Gc.minor ();
  let minor, _promoted, major = Gc.counters () in
  minor +. major

(* The cascade at n=128 declares 524,637 variables; declaring them must
   cost no per-variable allocation. *)
let test_cascade_n128_declares_in_blocks () =
  let before = allocated_words () in
  let lock = Locks.Cascade.family.Locks.Lock_intf.instantiate ~n:128 in
  let words = allocated_words () -. before in
  Alcotest.(check int) "variables" 524_637 (Layout.size lock.Locks.Lock_intf.layout);
  Alcotest.(check bool)
    (Printf.sprintf "fewer than 100,000 words allocated (%.0f)" words)
    true (words < 100_000.)

(* An accounting machine over the same layout pays for its flat memory
   (one word per variable) and the page directories of its accounting
   tables, not for four more per-variable tables of default values
   (2,634,966 words when they were flat arrays). *)
let test_cascade_n128_accounts_in_pages () =
  let lock = Locks.Cascade.family.Locks.Lock_intf.instantiate ~n:128 in
  let cfg = Locks.Harness.config_of_lock ~model:Config.Cc_wb lock ~n:128 in
  let before = allocated_words () in
  let m = Machine.create cfg in
  let words = allocated_words () -. before in
  Alcotest.(check (option int)) "no writer yet" None (Machine.writer_of m 0);
  Alcotest.(check bool)
    (Printf.sprintf "fewer than 700,000 words allocated (%.0f)" words)
    true (words < 700_000.)

let test_machine_initial_values () =
  let l = Layout.create () in
  let v = Layout.var l ~init:42 "v" in
  let cfg =
    Config.make ~check_exclusion:false ~n:1 ~layout:l
      ~entry:(fun _ -> Prog.unit)
      ~exit_section:(fun _ -> Prog.unit)
      ()
  in
  let m = Machine.create cfg in
  Alcotest.(check int) "initial value" 42 (Machine.mem_value m v);
  Alcotest.(check (option int)) "no writer" None (Machine.writer_of m v)

let test_config_rejects_zero_procs () =
  let l = Layout.create () in
  Alcotest.check_raises "n=0" (Invalid_argument "Config.make: n must be positive")
    (fun () ->
      ignore
        (Config.make ~n:0 ~layout:l
           ~entry:(fun _ -> Prog.unit)
           ~exit_section:(fun _ -> Prog.unit)
           ()))

let test_n1_machine_full_passage () =
  (* a single process, no variables at all *)
  let l = Layout.create () in
  let cfg =
    Config.make ~n:1 ~layout:l
      ~entry:(fun _ -> Prog.unit)
      ~exit_section:(fun _ -> Prog.unit)
      ()
  in
  let m = Machine.create cfg in
  Alcotest.(check bool) "finishes" true (Machine.run_until_passages m 0 ~target:1);
  Alcotest.(check int) "3 transition events" 3 (Vec.length (Machine.trace m))

(* Theorem1.claim and Theorem3 recurrences. *)
let test_bounds_claim_and_recurrences () =
  let f = Bounds.Adaptivity.linear 1.0 in
  let c = Bounds.Theorem1.claim ~f ~log2_n:65536.0 () in
  Alcotest.(check int) "claim consistent"
    (c.Bounds.Theorem1.forced_fences + 1)
    c.Bounds.Theorem1.contention;
  (* recurrences decrease Act as the paper's conditions dictate *)
  Alcotest.(check bool) "read step" true
    (Bounds.Theorem3.read_phase_step 100.0 < 100.0);
  Alcotest.(check bool) "write step" true
    (Bounds.Theorem3.write_phase_step ~delta:2 ~k:1 100.0 < 100.0);
  Alcotest.(check bool) "reg step" true
    (Bounds.Theorem3.regularization_step 100.0 = 99.0);
  (* polynomial / constant adaptivity families are usable *)
  let p = Bounds.Adaptivity.polynomial ~c:1.0 ~d:2.0 in
  Alcotest.(check bool) "poly eval" true (Bounds.Adaptivity.eval p 3 = 9.0);
  let k = Bounds.Adaptivity.constant 5.0 in
  Alcotest.(check bool) "const eval" true (Bounds.Adaptivity.eval k 99 = 5.0)

(* Corollaries.sweep structure. *)
let test_corollaries_sweep () =
  let f = Bounds.Adaptivity.linear 1.0 in
  let rows =
    Bounds.Corollaries.sweep ~f
      ~closed_form:(fun ~log2_n ->
        Bounds.Corollaries.cor2_closed_form ~c:1.0 ~log2_n)
      [ 64.; 1024. ]
  in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun (r : Bounds.Corollaries.row) ->
      Alcotest.(check bool) "forced >= closed - 1" true
        (float_of_int r.Bounds.Corollaries.forced
        >= r.Bounds.Corollaries.closed_form -. 1.0))
    rows

(* Random-subset IN3 sampling over a real construction run (the full
   exponential check is infeasible; this samples it). *)
let test_in3_random_subsets_on_construction () =
  let lock = Locks.Adaptive_list.family.Locks.Lock_intf.instantiate ~n:10 in
  let c = Adversary.Construction.create lock ~n:10 in
  ignore (Adversary.Construction.run ~min_act:4 c);
  let tr = Execution.Trace.of_machine (Adversary.Construction.machine c) in
  let act = Adversary.Construction.active c in
  let s = Analysis.Flow.analyze tr in
  let rng = Rng.create 7 in
  for _ = 1 to 12 do
    let subset =
      Tsim.Ids.Pidset.filter (fun _ -> Rng.bool rng) act
    in
    let viols = Analysis.Inset.check_in3_subset tr s subset in
    Alcotest.(check int)
      (Printf.sprintf "IN3 holds for random subset (|Y|=%d)"
         (Tsim.Ids.Pidset.cardinal subset))
      0 (List.length viols)
  done

let suite =
  [
    Alcotest.test_case "layout basics" `Quick test_layout_basics;
    Alcotest.test_case "layout blocks" `Quick test_layout_blocks;
    Alcotest.test_case "names rendered on demand" `Quick
      test_layout_names_on_demand;
    Alcotest.test_case "zoo layouts keep ids, names, inits, owners" `Quick
      test_zoo_layouts_unchanged;
    Alcotest.test_case "cascade n=128 declares in blocks" `Quick
      test_cascade_n128_declares_in_blocks;
    Alcotest.test_case "cascade n=128 accounts in pages" `Quick
      test_cascade_n128_accounts_in_pages;
    Alcotest.test_case "machine initial values" `Quick
      test_machine_initial_values;
    Alcotest.test_case "config rejects n=0" `Quick
      test_config_rejects_zero_procs;
    Alcotest.test_case "n=1 trivial passage" `Quick
      test_n1_machine_full_passage;
    Alcotest.test_case "bounds claim + recurrences" `Quick
      test_bounds_claim_and_recurrences;
    Alcotest.test_case "corollaries sweep" `Quick test_corollaries_sweep;
    Alcotest.test_case "IN3 random subsets (construction)" `Quick
      test_in3_random_subsets_on_construction;
  ]
