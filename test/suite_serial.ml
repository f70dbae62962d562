(* Trace serialization round-trips and metrics cross-checks. *)

open Tsim
open Execution
open Locks

let sample_trace ?(seed = 11) ?(fam = Mcs.family) ~n () =
  let lock = fam.Lock_intf.instantiate ~n in
  let m, stats =
    Harness.run_contended ~model:Config.Cc_wb ~schedule:(Harness.Rand seed)
      lock ~n ~k:n
  in
  assert stats.Harness.exclusion_ok;
  (m, Trace.of_machine m)

let events_equal (a : Event.t) (b : Event.t) =
  a.Event.seq = b.Event.seq && a.Event.pid = b.Event.pid
  && a.Event.kind = b.Event.kind && a.Event.remote = b.Event.remote
  && a.Event.rmr = b.Event.rmr && a.Event.critical = b.Event.critical

let test_roundtrip_exact () =
  let _, tr = sample_trace ~n:4 () in
  let tr' = Serial.of_string (Serial.to_string tr) in
  Alcotest.(check int) "length" (Trace.length tr) (Trace.length tr');
  Array.iteri
    (fun i e ->
      Alcotest.(check bool)
        (Printf.sprintf "event %d" i)
        true
        (events_equal e (Trace.get tr' i)))
    (Trace.events tr);
  (* layout round-trips too *)
  let l = Trace.layout tr and l' = Trace.layout tr' in
  Alcotest.(check int) "vars" (Layout.size l) (Layout.size l');
  for v = 0 to Layout.size l - 1 do
    Alcotest.(check string) "name" (Layout.name l v) (Layout.name l' v);
    Alcotest.(check int) "init" (Layout.init l v) (Layout.init l' v);
    Alcotest.(check (option int)) "owner" (Layout.owner l v)
      (Layout.owner l' v)
  done

let test_file_roundtrip () =
  let _, tr = sample_trace ~n:3 ~fam:Bakery.family () in
  let path = Filename.temp_file "trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serial.save path tr;
      let tr' = Serial.load path in
      Alcotest.(check int) "length" (Trace.length tr) (Trace.length tr'))

(* Serialized traces remain analyzable: flow and IN-set checks agree. *)
let test_loaded_trace_analyzable () =
  let _, tr = sample_trace ~n:4 ~fam:Ticket.family () in
  let tr' = Serial.of_string (Serial.to_string tr) in
  let s = Analysis.Flow.analyze tr and s' = Analysis.Flow.analyze tr' in
  let disagreements =
    List.filteri
      (fun i c -> c <> Vec.get s'.Analysis.Flow.critical i)
      (Vec.to_list s.Analysis.Flow.critical)
  in
  Alcotest.(check int) "criticality identical" 0 (List.length disagreements)

(* Metrics recomputed from the trace match the machine's online counters. *)
let test_metrics_crosscheck () =
  List.iter
    (fun (fam : Lock_intf.family) ->
      let m, tr = sample_trace ~n:4 ~fam () in
      let metrics = Metrics.compute tr in
      for p = 0 to 3 do
        match Metrics.find metrics p with
        | None -> Alcotest.fail "missing process"
        | Some pp ->
            Alcotest.(check int)
              (Printf.sprintf "%s p%d rmrs" fam.Lock_intf.family_name p)
              (Machine.rmrs m p) pp.Metrics.pp_rmrs;
            Alcotest.(check int)
              (Printf.sprintf "%s p%d fences" fam.Lock_intf.family_name p)
              (Machine.fences_completed m p)
              pp.Metrics.pp_fences;
            Alcotest.(check int)
              (Printf.sprintf "%s p%d criticals" fam.Lock_intf.family_name p)
              (Machine.criticals m p) pp.Metrics.pp_criticals;
            Alcotest.(check int)
              (Printf.sprintf "%s p%d passages" fam.Lock_intf.family_name p)
              (Machine.passages m p) pp.Metrics.pp_passages
      done)
    [ Mcs.family; Bakery.family; Tournament.family ]

(* Per-passage metrics agree with the machine's passage log. *)
let test_metrics_passages () =
  let m, tr = sample_trace ~n:3 ~fam:Ticket.family () in
  let metrics = Metrics.compute tr in
  for p = 0 to 2 do
    let log = Machine.passage_log m p in
    match Metrics.find metrics p with
    | None -> Alcotest.fail "missing"
    | Some pp ->
        List.iteri
          (fun i (mp : Metrics.per_passage) ->
            let s = Vec.get log i in
            Alcotest.(check int)
              (Printf.sprintf "p%d passage %d rmrs" p i)
              s.Machine.p_rmrs mp.Metrics.mp_rmrs;
            Alcotest.(check int)
              (Printf.sprintf "p%d passage %d fences" p i)
              s.Machine.p_fences mp.Metrics.mp_fences)
          pp.Metrics.pp_passage_log
  done

(* The renderer produces one row per event (plus 2 header lines), every
   row at the full width, and honors the limit. *)
let test_render_shape () =
  let _, tr = sample_trace ~n:3 ~fam:Ticket.family () in
  let s = Render.to_string tr in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
  Alcotest.(check int) "rows" (Trace.length tr + 2) (List.length lines);
  let limited = Render.to_string ~limit:5 tr in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' limited) in
  Alcotest.(check int) "limited rows" (5 + 3) (List.length lines);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions CS" true (contains s "*CS*")

(* Property: round-trip identity over random lock runs. *)
let prop_roundtrip =
  QCheck.Test.make ~name:"serialize/parse identity" ~count:40
    QCheck.(pair (int_bound 100_000) (int_bound 3))
    (fun (seed, which) ->
      let fam = List.nth [ Mcs.family; Ticket.family; Bakery.family; Fastpath.family ] which in
      let _, tr = sample_trace ~seed ~fam ~n:3 () in
      let tr' = Serial.of_string (Serial.to_string tr) in
      Trace.length tr = Trace.length tr'
      && Array.for_all2 events_equal (Trace.events tr) (Trace.events tr'))

let suite =
  [
    Alcotest.test_case "roundtrip exact" `Quick test_roundtrip_exact;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "loaded trace analyzable" `Quick
      test_loaded_trace_analyzable;
    Alcotest.test_case "metrics cross-check" `Quick test_metrics_crosscheck;
    Alcotest.test_case "metrics per passage" `Quick test_metrics_passages;
    Alcotest.test_case "render shape" `Quick test_render_shape;
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]
