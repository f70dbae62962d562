(* The paper's artefacts.

     dune exec bench/main.exe                 every experiment
     dune exec bench/main.exe -- e3 e6        selected experiments

   Experiment ids map to the paper's artefacts (DESIGN.md §3):
     e1 Figure 1 · e2 Theorems 1/3 · e3 Corollary 1 · e4 Corollary 2 ·
     e5 Corollary 3 · e6 lock zoo table · e7 PSO frontier (Ineq. 3) ·
     e8 Lemma 9 · e9 invariant audit · e10-e13 ablation, object
     linearizability, fences unavoidable, TSO/PSO separation.

   End-to-end and per-layer timing is benchmark/'s job; bench/ab.sh
   compares two revisions with it. *)

let () =
  let ids = List.map (fun (id, _, _) -> id) Experiments.all in
  let args = List.tl (Array.to_list Sys.argv) in
  (match List.filter (fun a -> not (List.mem a ids)) args with
  | [] -> ()
  | bad :: _ ->
      Printf.eprintf "bench: unknown argument %S (expected e1..e13)\n" bad;
      exit 2);
  let selected id = args = [] || List.mem id args in
  Printf.printf
    "Reproduction harness: \"The Price of being Adaptive\" (Ben-Baruch & \
     Hendler, PODC 2015)\n";
  List.iter (fun (id, _desc, f) -> if selected id then f ()) Experiments.all
