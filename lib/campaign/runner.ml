(* Executing one grid cell.

   Verify cells run the bounded explorer at one domain — the campaign
   parallelizes across whole searches, not inside them, so every cell
   result is the deterministic sequential one and reports are
   byte-stable. Adversary cells run the Section 4 construction, whose
   outcome (fences forced) is what the fence-frontier bracketing
   sweeps. *)

exception Bad_cell of string

let find_family name =
  match Locks.Zoo.find name with
  | Some fam -> fam
  | None ->
      raise
        (Bad_cell
           (Printf.sprintf "unknown lock %S; try one of: %s" name
              (String.concat ", "
                 (List.map
                    (fun f -> f.Locks.Lock_intf.family_name)
                    (Locks.Zoo.all @ Locks.Zoo.two_process
                   @ Locks.Zoo.recoverable @ Locks.Zoo.abortable)))))

(* Build the lock and the machine configuration a cell describes,
   validating every cross-field constraint the CLI would reject (unknown
   lock, aborts on a non-abortable lock, multi-passage one-time locks, a
   process count [Config.make] refuses, store parameters out of range).
   An adversary cell gets the configuration its construction runs under.
   Raises [Bad_cell]; called at plan time so a campaign fails on bad
   input before running anything. *)
let config_of (c : Cell.t) =
  let fam = find_family c.Cell.lock in
  let lock =
    try fam.Locks.Lock_intf.instantiate ~n:c.Cell.n
    with Invalid_argument m | Failure m ->
      raise (Bad_cell (Printf.sprintf "%s n=%d: %s" c.Cell.lock c.Cell.n m))
  in
  if c.Cell.max_aborts > 0 && lock.Locks.Lock_intf.abort = None then
    raise
      (Bad_cell
         (Printf.sprintf "%s has no abort cleanup section" c.Cell.lock));
  let cfg =
    try
      match c.Cell.kind with
      | Cell.Adversary ->
          Locks.Harness.config_of_lock ~model:c.Cell.model ~max_passages:1
            ~check_exclusion:true lock ~n:c.Cell.n
      | Cell.Verify ->
          Locks.Harness.config_of_lock ~model:c.Cell.model
            ~ordering:c.Cell.ordering ~max_passages:c.Cell.passages
            ~crash_semantics:c.Cell.crash_semantics lock ~n:c.Cell.n
    with Invalid_argument m | Failure m ->
      raise (Bad_cell (Printf.sprintf "%s: %s" c.Cell.lock m))
  in
  (* the store mode bypasses Config.make, so re-validate its ranges *)
  (match c.Cell.store with
  | Tsim.Config.Store_exact -> ()
  | Tsim.Config.Store_bitstate { log2_bits; hashes } ->
      if log2_bits < 10 || log2_bits > 36 || hashes < 1 || hashes > 8 then
        raise (Bad_cell "bitstate store parameters out of range"));
  (lock, { cfg with Tsim.Config.store = c.Cell.store })

let resolve c = ignore (config_of c)

let violation_kind_name = function
  | `Exclusion _ -> "exclusion"
  | `Deadlock -> "deadlock"
  | `Spin_exhausted -> "spin-exhausted"

let run ?stop ?max_millis ?(spin_fuel = 6) ~budget_nodes (c : Cell.t) :
    Cell.outcome =
  match c.Cell.kind with
  | Cell.Adversary ->
      (* the budget and the stop flag end the construction between rounds,
         with the partial verdicts a verify cell gets *)
      let deadline =
        Option.map
          (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.))
          max_millis
      in
      let interrupted () = Option.fold ~none:false ~some:Atomic.get stop in
      let late () =
        Option.fold ~none:false ~some:(fun t -> Unix.gettimeofday () > t)
          deadline
      in
      let lock, _ = config_of c in
      let con =
        Adversary.Construction.create ~model:c.Cell.model lock ~n:c.Cell.n
      in
      let report =
        Adversary.Construction.run ~min_act:1
          ~stop:(fun () -> interrupted () || late ())
          con
      in
      {
        Cell.verdict =
          (match report.Adversary.Report.outcome with
          | Adversary.Report.Stopped ->
              Cell.Partial (if interrupted () then "interrupted" else "millis")
          | _ -> Cell.Fences report.Adversary.Report.best_fences);
        nodes = report.Adversary.Report.total_contention;
        max_depth = List.length report.Adversary.Report.steps;
        budget_nodes;
      }
  | Cell.Verify ->
      let _, cfg = config_of c in
      let r =
        Mcheck.Explore.explore ~max_nodes:budget_nodes ?max_millis ?stop
          ~spin_fuel ~por:c.Cell.por ~max_crashes:c.Cell.max_crashes
          ~max_aborts:c.Cell.max_aborts cfg
      in
      let verdict =
        if r.Mcheck.Explore.verified then Cell.Verified
        else if r.Mcheck.Explore.violations <> [] then
          Cell.Violation
            (List.sort_uniq String.compare
               (List.map
                  (fun v -> violation_kind_name v.Mcheck.Explore.kind)
                  r.Mcheck.Explore.violations))
        else
          match r.Mcheck.Explore.partial with
          | Some `Nodes -> Cell.Partial "nodes"
          | Some `Millis -> Cell.Partial "millis"
          | Some `Violations -> Cell.Partial "violations"
          | Some `Aborts -> Cell.Partial "interrupted"
          | None ->
              (* exhausted, unverified, no violations: exclusion was not
                 checked — count it verified-as-explored *)
              Cell.Verified
      in
      {
        Cell.verdict;
        nodes = r.Mcheck.Explore.nodes;
        max_depth = r.Mcheck.Explore.max_depth;
        budget_nodes;
      }
