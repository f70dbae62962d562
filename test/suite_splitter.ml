(* Moir-Anderson splitter properties and renaming-grid uniqueness — the
   read/write building blocks of adaptive algorithms. *)

open Tsim
open Tsim.Prog
open Locks

(* Run n processes through one splitter under a schedule; collect
   outcomes. *)
let run_splitter ~n ~schedule =
  let layout = Layout.create () in
  let s = Splitter.make_splitter layout "s" in
  let outcomes = Array.make n Splitter.Right in
  let cfg =
    Config.make ~model:Config.Cc_wb ~check_exclusion:false ~n ~layout
      ~entry:(fun p ->
        let* o = Splitter.enter_splitter s p in
        outcomes.(p) <- o;
        unit)
      ~exit_section:(fun _ -> Prog.unit)
      ()
  in
  let m = Machine.create cfg in
  (match schedule with
  | `Rr -> ignore (Sched.round_robin m)
  | `Rand seed -> ignore (Sched.random ~seed m));
  outcomes

let count o outcomes =
  Array.fold_left (fun acc x -> if x = o then acc + 1 else acc) 0 outcomes

let test_splitter_solo_stops () =
  let outcomes = run_splitter ~n:1 ~schedule:`Rr in
  Alcotest.(check bool) "solo stops" true (outcomes.(0) = Splitter.Stop)

(* The splitter guarantees: <= 1 stop, <= k-1 right, <= k-1 down. *)
let prop_splitter_guarantees =
  QCheck.Test.make ~name:"splitter guarantees" ~count:150
    QCheck.(pair (int_range 2 8) (int_bound 100_000))
    (fun (n, seed) ->
      let o = run_splitter ~n ~schedule:(`Rand seed) in
      count Splitter.Stop o <= 1
      && count Splitter.Right o <= n - 1
      && count Splitter.Down o <= n - 1)

(* Renaming grid: distinct names, all within the first 2(k-1)+1 diagonals. *)
let run_grid ~n ~side ~schedule =
  let layout = Layout.create () in
  let g = Splitter.make_grid layout ~side in
  let names = Array.make n None in
  let cfg =
    Config.make ~model:Config.Cc_wb ~check_exclusion:false ~n ~layout
      ~entry:(fun p ->
        let* name = Splitter.rename g p in
        names.(p) <- name;
        unit)
      ~exit_section:(fun _ -> Prog.unit)
      ()
  in
  let m = Machine.create cfg in
  (match schedule with
  | `Rr -> ignore (Sched.round_robin m)
  | `Rand seed -> ignore (Sched.random ~seed m));
  (g, names, m)

let test_grid_solo_gets_origin () =
  let _, names, _ = run_grid ~n:1 ~side:4 ~schedule:`Rr in
  Alcotest.(check (option int)) "origin" (Some 0) names.(0)

let prop_grid_unique_names =
  QCheck.Test.make ~name:"renaming grid: distinct names in k diagonals"
    ~count:100
    QCheck.(pair (int_range 2 6) (int_bound 100_000))
    (fun (n, seed) ->
      let side = n + 1 in
      let _, names, _ = run_grid ~n ~side ~schedule:(`Rand seed) in
      let got = Array.to_list names in
      (* everyone got a name (grid large enough) *)
      List.for_all Option.is_some got
      &&
      let vals = List.map Option.get got in
      List.length (List.sort_uniq compare vals) = n
      && List.for_all
           (fun name ->
             let r = name / side and d = name mod side in
             r + d <= 2 * (n - 1))
           vals)

(* A walk marks every cell it visits: read from machine memory after
   the run, each claimed name's cell is marked and its splitter's y is
   set. *)
let test_claimed_cells_marked () =
  let n = 4 and side = 6 in
  let g, names, m = run_grid ~n ~side ~schedule:(`Rand 7) in
  let marked r d = Machine.mem_value m (Splitter.mark g ~r ~d) <> 0 in
  Array.iter
    (fun name ->
      match name with
      | None -> Alcotest.fail "missing name"
      | Some nm ->
          let r = nm / side and d = nm mod side in
          Alcotest.(check bool)
            (Printf.sprintf "cell (%d,%d) marked" r d)
            true (marked r d);
          Alcotest.(check int)
            (Printf.sprintf "cell (%d,%d) claimed" r d)
            1
            (Machine.mem_value m (Splitter.cell g ~r ~d).Splitter.y))
    names

let suite =
  [
    Alcotest.test_case "solo stops" `Quick test_splitter_solo_stops;
    Alcotest.test_case "grid solo gets origin" `Quick
      test_grid_solo_gets_origin;
    Alcotest.test_case "claimed cells are marked" `Quick
      test_claimed_cells_marked;
    QCheck_alcotest.to_alcotest prop_splitter_guarantees;
    QCheck_alcotest.to_alcotest prop_grid_unique_names;
  ]
