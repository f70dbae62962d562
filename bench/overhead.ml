(* The search profiler's pay-for-use contract (DESIGN.md §5i), on
   Peterson's 2-process algorithm: a 290-node exhaustive space, small
   enough to explore thousands of times a second.

   End-to-end timing lives in benchmark/; these rows compare two variants
   of the same search within one process, which is what a few-percent
   overhead needs. *)

let row name value unit_ = (name, value, unit_)
let per_node_row name ns = row name ns "ns_per_node"

let peterson_cfg () =
  let layout = Tsim.Layout.create () in
  let flag = Tsim.Layout.array layout ~init:0 "flag" 2 in
  let turn = Tsim.Layout.var layout ~init:0 "turn" in
  let open Tsim.Prog in
  Tsim.Config.make ~model:Tsim.Config.Cc_wb ~check_exclusion:true ~n:2 ~layout
    ~entry:(fun p ->
      let* () = write flag.(p) 1 in
      let* () = write turn p in
      let* () = fence in
      let rec await fuel =
        if fuel <= 0 then raise (Tsim.Prog.Spin_exhausted turn)
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

(* Overhead rows compare two variants of the same tiny workload, and
   the margin under test (a few percent) is far below the noise of a
   shared runner's 100ms windows. So both variants time every
   individual explore call (~0.4 ms) interleaved and compare per-call
   minima: an uninterrupted call is a clean sample of intrinsic cost,
   and among thousands of calls some are uninterrupted even on a busy
   box. *)
let per_node_min_pair f g =
  ignore (f ());
  ignore (g ());
  Gc.compact ();
  let bf = ref infinity and bg = ref infinity in
  let one h best =
    for _ = 1 to 300 do
      let t0 = Unix.gettimeofday () in
      let nodes = h () in
      let dt = Unix.gettimeofday () -. t0 in
      let ns = dt *. 1e9 /. float_of_int nodes in
      if ns < !best then best := ns
    done
  in
  for _ = 1 to 4 do
    one f bf;
    one g bg
  done;
  (!bf, !bg)

(* Profiling overhead: the reference workload with the profile
   accumulator attached at the front ends' sampling stride
   ({!Mcheck.Explore.default_profile_every}: strided statistical
   attribution — a disarmed node costs one counter decrement, an armed
   one a tick read and an open-addressing bump). This is the ≤5%
   pay-for-use contract of DESIGN.md §5i, asserted here. *)
let profile_overhead_rows () =
  let cfg = peterson_cfg () in
  let bare () =
    let r = Mcheck.Explore.explore ~max_nodes:100_000 cfg in
    assert r.Mcheck.Explore.verified;
    r.Mcheck.Explore.nodes
  in
  let profiled () =
    let p =
      Mcheck.Explore.new_profile ~every:Mcheck.Explore.default_profile_every
        ()
    in
    let r = Mcheck.Explore.explore ~max_nodes:100_000 ~profile:p cfg in
    assert r.Mcheck.Explore.verified;
    r.Mcheck.Explore.nodes
  in
  let base, prof = per_node_min_pair bare profiled in
  let prof_pct = (prof -. base) /. base *. 100. in
  (* the pay-for-use contract: sampled profiling within 5% of bare *)
  assert (prof_pct <= 5.0);
  [
    per_node_row "price_adaptive mcheck/peterson n=2 per-node (profiled)"
      prof;
    row "price_adaptive mcheck/peterson n=2 profiling overhead" prof_pct
      "percent";
  ]

let run () =
  Printf.printf "\nSearch-profiler overhead\n";
  Printf.printf "========================\n";
  Printf.printf "%-70s %12s\n" "row" "value";
  List.iter
    (fun (name, value, unit_) ->
      Printf.printf "%-70s %12.1f %s\n" name value unit_)
    (profile_overhead_rows ())
