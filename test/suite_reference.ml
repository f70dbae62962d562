(* The explorer against the reference oracle (reference.ml).

   For locks whose whole state lives in the machine the contract is
   exact. With the reduction
   off, the explorer expands every reachable state once, so its node
   count equals the reference's state count at one domain and in the
   parallel driver, and at one domain the fingerprints its hook reports
   (every successor, never the root) plus the root are the reference's
   state set. With the reduction on, the states it visits are a subset
   of that set. Every run — reduction on and off, sequential and
   parallel — finds the same violation kinds. Those runs are paranoid
   ([~paranoid_fp]): every node's fingerprint and classification words
   are checked against a fresh computation.

   The locks in [scratch_families] pass per-passage scratch through
   OCaml arrays that live outside the machine state, so in-place
   exploration and the clone-per-child reference reach different state
   sets (EXPERIMENTS.md E22); for them only the violation kinds are
   compared. *)

open Tsim
module E = Mcheck.Explore

(* Every way the explorer disagrees with the reference on [mk_cfg ()];
   [] when it agrees. [~states:false] compares violation kinds only.
   Each run gets a fresh configuration, so impure locks start from clean
   scratch arrays. *)
let disagreements ?(max_crashes = 0) ?(max_aborts = 0) ?(on_spin = `Prune)
    ?(states = true) mk_cfg =
  let r = Reference.explore ~max_crashes ~max_aborts ~on_spin (mk_cfg ()) in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (* a budget sized from the reference keeps the parallel driver's
     shared store small; a run that outgrows it reports non-exhaustion *)
  let max_nodes = max 10_000 (4 * Reference.count r) in
  (* paranoid mode rechecks every node's incremental fingerprint and
     classification words against a fresh computation; scratch arrays
     outside the machine change continuation hashes behind the journal,
     so it runs only where the state sets are compared *)
  let run ?on_fingerprint ~por ~domains () =
    let e =
      E.explore ~max_nodes ~max_violations:max_int ~on_spin ~por ~domains
        ~max_crashes ~max_aborts ?on_fingerprint ~paranoid_fp:states
        (mk_cfg ())
    in
    let tag = Printf.sprintf "por=%b d=%d" por domains in
    if not e.E.exhausted then fail "%s: not exhausted" tag;
    if Reference.kinds_of e <> r.Reference.kinds then
      fail "%s: violation kinds {%s}, reference {%s}" tag
        (String.concat "," (Reference.kinds_of e))
        (String.concat "," r.Reference.kinds);
    (tag, e)
  in
  let hook tbl = Some (fun fp -> Hashtbl.replace tbl fp ()) in
  let off_fps = Hashtbl.create 1024 and on_fps = Hashtbl.create 1024 in
  let off = run ?on_fingerprint:(hook off_fps) ~por:false ~domains:1 () in
  ignore (run ?on_fingerprint:(hook on_fps) ~por:true ~domains:1 ());
  ignore (run ~por:true ~domains:4 ());
  if states then begin
    let count = Reference.count r in
    List.iter
      (fun (tag, e) ->
        if e.E.nodes <> count then
          fail "%s: %d nodes, reference %d states" tag e.E.nodes count)
      (off
      :: List.map (fun domains -> run ~por:false ~domains ()) [ 2; 4 ]);
    Hashtbl.replace off_fps r.Reference.root ();
    let outside tbl =
      Hashtbl.fold
        (fun fp () n -> if Hashtbl.mem r.Reference.states fp then n else n + 1)
        tbl 0
    in
    if Hashtbl.length off_fps <> count || outside off_fps > 0 then
      fail "por off: %d visited fingerprints (%d unknown to the reference), \
            reference %d"
        (Hashtbl.length off_fps) (outside off_fps) count;
    if outside on_fps > 0 then
      fail "por on: %d fingerprints unknown to the reference"
        (outside on_fps)
  end;
  List.rev !errors

let check name ?max_crashes ?max_aborts ?states mk_cfg =
  match disagreements ?max_crashes ?max_aborts ?states mk_cfg with
  | [] -> ()
  | errors -> Alcotest.failf "%s: %s" name (String.concat "; " errors)

(* --- the zoo at n=2 ---------------------------------------------------- *)

(* The six families that keep per-passage scratch outside the machine
   state, where the explorer and the reference disagree on state counts
   (EXPERIMENTS.md E22). ROADMAP item 3 makes them pure; each one that is
   fixed leaves this list and gets the full state-set comparison. *)
let scratch_families =
  [ "ticket"; "clh"; "anderson"; "adaptive-tree"; "cascade"; "abortable-queue" ]

(* Every family, fault-free; plus a crash budget of 1 where the lock has a
   recovery section and an abort budget of 1 where it has an abort
   section: 24 configurations. *)
let zoo_cases =
  List.concat_map
    (fun (fam : Locks.Lock_intf.family) ->
      let name = fam.Locks.Lock_intf.family_name in
      let lock = fam.Locks.Lock_intf.instantiate ~n:2 in
      let mk_cfg () =
        Locks.Harness.config_of_lock ~model:Config.Cc_wb
          (fam.Locks.Lock_intf.instantiate ~n:2)
          ~n:2
      in
      let case label ?max_crashes ?max_aborts () =
        Alcotest.test_case
          (Printf.sprintf "zoo %s agrees with the reference" label)
          `Quick (fun () ->
            check label ?max_crashes ?max_aborts
              ~states:(not (List.mem name scratch_families))
              mk_cfg)
      in
      [ case name () ]
      @ (if Option.is_some lock.Locks.Lock_intf.recovery then
           [ case (name ^ " crashes<=1") ~max_crashes:1 () ]
         else [])
      @
      if Option.is_some lock.Locks.Lock_intf.abort then
        [ case (name ^ " aborts<=1") ~max_aborts:1 () ]
      else [])
    Locks.Zoo.(all @ two_process @ recoverable @ abortable)

let test_zoo_size () =
  Alcotest.(check int) "zoo configurations" 24 (List.length zoo_cases)

let suite =
  Alcotest.test_case "24 zoo configurations" `Quick test_zoo_size
  :: zoo_cases
