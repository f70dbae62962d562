(* The four workloads. Inputs are fixed by the workload name: exhaustive
   searches have no sampling freedom, so the seed only drives the
   per-layer corpora and the sample order. Each workload has a full size
   (what the benchmark measures) and a smoke size (what `dune runtest`
   checks), and each size has a committed known answer under
   expected/<name>.json. *)

type kind = Tournament | Rtas | Grid | Cascade

type t = {
  kind : kind;
  name : string;
  tag : string;  (** prefix of the workload's per-layer metric names *)
  threads : int;  (** explorer domains or campaign jobs the run uses *)
}

let campaign_jobs = 2

let all =
  [ { kind = Tournament; name = "verify-tournament-n4"; tag = "w1"; threads = 1 };
    { kind = Rtas; name = "verify-rtas-crash-n4-d2"; tag = "w2"; threads = 2 };
    { kind = Grid; name = "campaign-grid-cold"; tag = "w3"; threads = campaign_jobs };
    { kind = Cascade; name = "adversary-cascade-n128-audit"; tag = "w4"; threads = 1 } ]
let find name = List.find_opt (fun w -> w.name = name) all
let max_threads = List.fold_left (fun a w -> max a w.threads) 1 all

(* --- inputs ------------------------------------------------------------- *)

(* Same budget and spin fuel as `price_adaptive verify`. *)
let max_nodes = 2_000_000
let spin_fuel = 6

type verify = {
  cfg : Tsim.Config.t;
  domains : int;
  max_crashes : int;
}

type inputs =
  | Verify of verify
  | Campaign of { plan : Campaign.Driver.plan; cache : Campaign.Cache.t }
  | Adversary of { lock : Locks.Lock_intf.t; n : int }

let family name =
  match Locks.Zoo.find name with
  | Some f -> f
  | None -> failwith ("unknown lock " ^ name)

let verify_inputs ~lock ~n ~domains ~max_crashes =
  let l = (family lock).Locks.Lock_intf.instantiate ~n in
  let cfg = Locks.Harness.config_of_lock ~model:Tsim.Config.Cc_wb l ~n in
  Verify { cfg = { cfg with Tsim.Config.engine = `Journal }; domains; max_crashes }

let grid_spec ~smoke =
  if smoke then ([ "lock=tas,ticket,mcs n=2 model=dsm,cc-wb" ], [])
  else
    ( [ "lock=tas,ticket,mcs,clh,anderson,bakery,filter,tournament,fastpath \
         n=2-3 model=dsm,cc-wt,cc-wb ord=tso,pso" ],
      [ "min-n-fences k=16 lock=cascade";
        "max-exhaustive-n lock=mcs";
        "min-crashes-refute lock=recoverable-tas-naive" ] )

(* Parse the campaign plan and validate every cell, as the CLI does
   before it opens the cache. *)
let campaign_plan ~smoke =
  let ok = function Ok x -> x | Error m -> failwith m in
  let grids, brackets = grid_spec ~smoke in
  let plan =
    {
      Campaign.Driver.grid =
        List.concat_map (fun s -> ok (Campaign.Driver.parse_grid s)) grids;
      brackets = List.map (fun s -> ok (Campaign.Driver.parse_bracket s)) brackets;
    }
  in
  List.iter Campaign.Runner.resolve (Campaign.Driver.planned plan.Campaign.Driver.grid);
  plan

let cache_path ~work = Filename.concat work "campaign.cache.ndjson"

(* Everything a run needs before its search starts; [setup_s] ends here. *)
let setup w ~smoke ~work =
  match w.kind with
  | Tournament ->
      verify_inputs ~lock:"tournament" ~n:(if smoke then 2 else 4) ~domains:1
        ~max_crashes:0
  | Rtas ->
      verify_inputs ~lock:"recoverable-tas" ~n:(if smoke then 2 else 4)
        ~domains:w.threads
        ~max_crashes:(if smoke then 1 else 2)
  | Grid ->
      let plan = campaign_plan ~smoke in
      let cache, _ = Campaign.Cache.open_file ~resume:false (cache_path ~work) in
      Campaign { plan; cache }
  | Cascade ->
      let n = if smoke then 8 else 128 in
      Adversary { lock = (family "cascade").Locks.Lock_intf.instantiate ~n; n }

(* --- runs and answers --------------------------------------------------- *)

type outcome =
  | Explored of Mcheck.Explore.result
  | Campaigned of Campaign.Driver.result
  | Constructed of Adversary.Construction.t

let explore ?(obs = Obs.Telemetry.null) v =
  Mcheck.Explore.explore ~max_nodes ~spin_fuel ~domains:v.domains ~por:true
    ~max_crashes:v.max_crashes ~obs v.cfg

let run_campaign ?(obs = Obs.Telemetry.null) ~cache plan =
  Campaign.Driver.run ~jobs:campaign_jobs ~spin_fuel ~obs ~cache plan

(* The timed part of a sample: search start to verdict. *)
let run ?(obs = Obs.Telemetry.null) = function
  | Verify v -> Explored (explore ~obs v)
  | Campaign { plan; cache } ->
      Fun.protect
        ~finally:(fun () -> Campaign.Cache.close cache)
        (fun () -> Campaigned (run_campaign ~obs ~cache plan))
  | Adversary { lock; n } ->
      let c = Adversary.Construction.create ~audit:true ~obs lock ~n in
      ignore (Adversary.Construction.run ~min_act:1 c);
      Constructed c

let str s = Obs.Json.String s
let int i = Obs.Json.Int i

(* What a run is checked on. State counts are deliberately absent: a
   change that shrinks the state space must not read as a wrong answer. *)
let answer = function
  | Explored r ->
      let kinds =
        List.sort_uniq compare
          (List.map
             (fun v ->
               match v.Mcheck.Explore.kind with
               | `Exclusion _ -> "exclusion"
               | `Deadlock -> "deadlock"
               | `Spin_exhausted -> "spin-exhausted")
             r.Mcheck.Explore.violations)
      in
      let verdict =
        if r.Mcheck.Explore.verified then "VERIFIED"
        else if kinds <> [] then "VIOLATION"
        else "PARTIAL"
      in
      Obs.Json.Obj
        [ ("verdict", str verdict); ("violation_kinds", Obs.Json.List (List.map str kinds)) ]
  | Campaigned r ->
      Obs.Json.Obj
        [ ( "cells",
            Obs.Json.Obj
              (List.map
                 (fun (c : Campaign.Driver.cell_result) ->
                   ( Campaign.Cell.key c.Campaign.Driver.cell,
                     str (Campaign.Cell.verdict_to_string c.Campaign.Driver.outcome.Campaign.Cell.verdict) ))
                 r.Campaign.Driver.cells) );
          ( "brackets",
            Obs.Json.List
              (List.map
                 (fun (b : Campaign.Driver.bracket_result) ->
                   let s = b.Campaign.Driver.spec in
                   Obs.Json.Obj
                     [ ("goal", str (Campaign.Driver.goal_name s.Campaign.Driver.goal));
                       ("base", str (Campaign.Cell.key s.Campaign.Driver.base));
                       ( "answer",
                         match b.Campaign.Driver.answer with
                         | Some a -> int a
                         | None -> Obs.Json.Null ) ])
                 r.Campaign.Driver.brackets) );
          ("complete", Obs.Json.Bool (not r.Campaign.Driver.interrupted)) ]
  | Constructed c -> (
      let audit = List.length (Adversary.Construction.audit_failures c) in
      match Adversary.Witness.extract c with
      | None -> Obs.Json.Obj [ ("witness", Obs.Json.Null); ("audit_failures", int audit) ]
      | Some wt ->
          Obs.Json.Obj
            [ ("witness_fences", int wt.Adversary.Witness.fences_in_passage);
              ("contention", int wt.Adversary.Witness.total_contention);
              ("witness_valid", Obs.Json.Bool wt.Adversary.Witness.valid);
              ("audit_failures", int audit) ])

let expected_path ~dir w = Filename.concat (Filename.concat dir "expected") (w.name ^ ".json")

let expected_answer ~dir ~smoke w =
  Stats.member_exn
    (if smoke then "smoke_answer" else "answer")
    (Stats.parse_json_file (expected_path ~dir w))

(* [true] iff the run's answer equals the committed known answer; a
   mismatch is described on stderr so a failing sample explains itself. *)
let check ~dir ~smoke w outcome =
  let got = answer outcome in
  let want = expected_answer ~dir ~smoke w in
  let ok = Obs.Json.equal got want in
  if not ok then
    Printf.eprintf "%s: answer differs from %s\n  got: %s\n" w.name
      (expected_path ~dir w) (Obs.Json.to_string got);
  ok
