let () =
  Alcotest.run "price_adaptive"
    [
      ("vec", Suite_vec.suite);
      ("paged", Suite_paged.suite);
      ("pidset", Suite_pidset.suite);
      ("layout", Suite_layout.suite);
      ("wbuf", Suite_wbuf.suite);
      ("machine", Suite_machine.suite);
      ("sched", Suite_sched.suite);
      ("trace", Suite_trace.suite);
      ("serial", Suite_serial.suite);
      ("analysis", Suite_analysis.suite);
      ("graphs", Suite_graphs.suite);
      ("locks", Suite_locks.suite);
      ("pso", Suite_pso.suite);
      ("contention", Suite_contention.suite);
      ("splitter", Suite_splitter.suite);
      ("adversary", Suite_adversary.suite);
      ("objects", Suite_objects.suite);
      ("bounds", Suite_bounds.suite);
      ("lincheck", Suite_lincheck.suite);
      ("coord", Suite_coord.suite);
      ("mcheck", Suite_mcheck.suite);
      ("mcheck_equiv", Suite_mcheck_equiv.suite);
      ("reference", Suite_reference.suite);
      ("journal", Suite_journal.suite);
      ("fpstore", Suite_fpstore.suite);
      ("crash", Suite_crash.suite);
      ("abort", Suite_abort.suite);
      ("corpus", Suite_corpus.suite);
      ("obs", Suite_obs.suite);
      ("twoproc", Suite_twoproc.suite);
      ("campaign", Suite_campaign.suite);
    ]
