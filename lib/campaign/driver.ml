(* The campaign orchestrator. Scheduling policy and determinism
   contract live here; single-cell mechanics are in Runner, persistence
   in Cache, frontier search in Bracket.

   Determinism: a cell's outcome is the sequential explorer's, so the
   only sources of run-to-run variation are scheduling (which worker ran
   what, in which order) and wall-clock. Both are kept out of the
   report: cells are emitted in canonical key order with outcomes only,
   and timings go to telemetry. That is what makes "warm re-run is
   byte-identical" a testable contract rather than a hope. *)

exception Interrupted

(* --- spec parsing ------------------------------------------------------ *)

exception Spec_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Spec_error m)) fmt

let tokens_of s =
  String.map (function ';' | '\t' | '\n' -> ' ' | c -> c) s
  |> String.split_on_char ' '
  |> List.filter (fun t -> t <> "")

let split_kv tok =
  match String.index_opt tok '=' with
  | Some i when i > 0 ->
      Some
        ( String.sub tok 0 i,
          String.sub tok (i + 1) (String.length tok - i - 1) )
  | _ -> None

(* "0,2-4" -> [0;2;3;4] *)
let ints_of field v =
  let range p =
    match String.index_opt p '-' with
    | Some i when i > 0 -> (
        let a = int_of_string_opt (String.sub p 0 i)
        and b =
          int_of_string_opt (String.sub p (i + 1) (String.length p - i - 1))
        in
        match (a, b) with
        | Some a, Some b when a <= b -> List.init (b - a + 1) (fun k -> a + k)
        | _ -> fail "%s: bad range %S" field p)
    | _ -> (
        match int_of_string_opt p with
        | Some x -> [ x ]
        | None -> fail "%s: bad integer %S" field p)
  in
  List.concat_map range (String.split_on_char ',' v)

let enums_of of_code field v =
  List.map
    (fun p ->
      match of_code p with
      | Some x -> x
      | None -> fail "%s: unknown value %S" field p)
    (String.split_on_char ',' v)

let kind_of_code = function
  | "verify" -> Some Cell.Verify
  | "adversary" -> Some Cell.Adversary
  | _ -> None

let por_of_code = function
  | "on" -> Some true
  | "off" -> Some false
  | _ -> None

(* The cell fields a grid or a bracket sets, in the grid's product order
   (outermost first): each parses its value list into one cell update
   per value. *)
let fields =
  let each values set k v = List.map (fun x c -> set c x) (values k v) in
  let ints = each ints_of and enums of_code = each (enums_of of_code) in
  [
    ("kind", enums kind_of_code (fun c kind -> { c with Cell.kind }));
    ( "lock",
      each (fun _ -> String.split_on_char ',') (fun c lock ->
          { c with Cell.lock }) );
    ("n", ints (fun c n -> { c with Cell.n }));
    ("model", enums Cell.model_of_code (fun c model -> { c with Cell.model }));
    ( "ord",
      enums Cell.ordering_of_code (fun c ordering -> { c with Cell.ordering })
    );
    ("pass", ints (fun c passages -> { c with Cell.passages }));
    ("crashes", ints (fun c max_crashes -> { c with Cell.max_crashes }));
    ("aborts", ints (fun c max_aborts -> { c with Cell.max_aborts }));
    ( "csem",
      enums Cell.csem_of_code (fun c crash_semantics ->
          { c with Cell.crash_semantics }) );
    ("store", enums Cell.store_of_code (fun c store -> { c with Cell.store }));
    ("por", enums por_of_code (fun c por -> { c with Cell.por }));
  ]

let one k v = function
  | [ x ] -> x
  | _ -> fail "%s: one value only, got %S" k v

(* A spec's [field=value] tokens: every field [known], none twice. *)
let assignments ~what ~known toks =
  List.fold_left
    (fun given tok ->
      match split_kv tok with
      | None -> fail "expected field=value, got %S" tok
      | Some (k, _) when not (List.mem k known) ->
          fail "unknown %s field %S" what k
      | Some (k, _) when List.mem_assoc k given -> fail "%s given twice" k
      | Some kv -> kv :: given)
    [] toks

(* The cells [given] describes over [Cell.make]'s defaults: the product
   of its value lists, or one cell when [single]. *)
let cells_of ~what ?kind ~single given =
  if not (List.mem_assoc "lock" given) then fail "%s needs lock=..." what;
  List.fold_left
    (fun cells (k, values) ->
      match List.assoc_opt k given with
      | None -> cells
      | Some v ->
          let updates = values k v in
          let updates = if single then [ one k v updates ] else updates in
          List.concat_map (fun c -> List.map (fun u -> u c) updates) cells)
    [ Cell.make ?kind ~lock:"" ~n:2 () ]
    fields

let parse spec_exn spec =
  match spec_exn spec with
  | x -> Ok x
  | exception Spec_error m -> Error m

let parse_grid =
  parse (fun spec ->
      cells_of ~what:"grid" ~single:false
        (assignments ~what:"grid" ~known:(List.map fst fields)
           (tokens_of spec)))

(* --- bracket specs ----------------------------------------------------- *)

type bracket_goal =
  | Min_n_fences of int
  | Max_exhaustive_n
  | Min_crashes_refute
  | Min_aborts_refute

let goal_name = function
  | Min_n_fences _ -> "min-n-fences"
  | Max_exhaustive_n -> "max-exhaustive-n"
  | Min_crashes_refute -> "min-crashes-refute"
  | Min_aborts_refute -> "min-aborts-refute"

type bracket_spec = {
  goal : bracket_goal;
  base : Cell.t;
  lo : int;
  hi : int;
}

let bracket_known =
  "k" :: "lo" :: "hi" :: List.filter (( <> ) "kind") (List.map fst fields)

let parse_bracket =
  parse (fun spec ->
      match tokens_of spec with
      | [] -> fail "empty bracket spec"
      | goal_tok :: toks ->
          let given = assignments ~what:"bracket" ~known:bracket_known toks in
          let int_f k =
            Option.map (fun v -> one k v (ints_of k v)) (List.assoc_opt k given)
          in
          let goal, kind, default_lo, default_hi =
            match goal_tok with
            | "min-n-fences" -> (
                match int_f "k" with
                | Some k when k >= 1 -> (Min_n_fences k, Cell.Adversary, 2, 8)
                | Some _ -> fail "min-n-fences: k must be >= 1"
                | None -> fail "min-n-fences needs k=<fences>")
            | "max-exhaustive-n" -> (Max_exhaustive_n, Cell.Verify, 2, 8)
            | "min-crashes-refute" -> (Min_crashes_refute, Cell.Verify, 0, 4)
            | "min-aborts-refute" -> (Min_aborts_refute, Cell.Verify, 0, 4)
            | g -> fail "unknown bracket goal %S" g
          in
          let base =
            List.hd (cells_of ~what:"bracket" ~kind ~single:true given)
          in
          let lo = Option.value (int_f "lo") ~default:default_lo in
          let hi = Option.value (int_f "hi") ~default:default_hi in
          if lo > hi then fail "bracket has lo=%d > hi=%d" lo hi;
          { goal; base; lo; hi })

type plan = { grid : Cell.t list; brackets : bracket_spec list }

(* the cell a bracket evaluates at probe point [x] *)
let cell_at spec x =
  match spec.goal with
  | Min_n_fences _ | Max_exhaustive_n -> { spec.base with Cell.n = x }
  | Min_crashes_refute -> { spec.base with Cell.max_crashes = x }
  | Min_aborts_refute -> { spec.base with Cell.max_aborts = x }

let predicate spec (o : Cell.outcome) =
  match (spec.goal, o.Cell.verdict) with
  | Min_n_fences k, Cell.Fences f -> f >= k
  | Max_exhaustive_n, Cell.Partial _ -> false
  | Max_exhaustive_n, _ -> true
  | (Min_crashes_refute | Min_aborts_refute), Cell.Violation _ -> true
  | _ -> false

(* --- scheduling -------------------------------------------------------- *)

let planned cells =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun c ->
      let k = Cell.key c in
      if Hashtbl.mem seen k then None
      else begin
        Hashtbl.add seen k ();
        Some ((Cell.cost_hint c, Cell.search_key c, k), c)
      end)
    cells
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

type cell_result = {
  cell : Cell.t;
  outcome : Cell.outcome;
  from_cache : bool;
}

type bracket_result = {
  spec : bracket_spec;
  answer : int option;
  evals : int;
  probed : (int * bool) list;
}

type result = {
  cells : cell_result list;
  brackets : bracket_result list;
  interrupted : bool;
  executed : int;
  shared : int;
  hits : int;
}

(* Never cache a time-limited or interrupt-limited partial — both are
   wall-clock accidents and would poison warm-run determinism. Every
   search runs at the full cap, so a node partial is exactly what
   [Cell.usable] wants recorded. *)
let cacheable (o : Cell.outcome) =
  match o.Cell.verdict with
  | Cell.Partial "nodes" -> true
  | Cell.Partial _ -> false
  | _ -> true

(* Cells in schedule order, cut into runs of one search key ([planned]
   keeps such cells adjacent). *)
let by_search cells =
  Array.of_list
    (List.fold_right
       (fun c groups ->
         match groups with
         | (d :: _ as g) :: rest when Cell.search_key c = Cell.search_key d ->
             (c :: g) :: rest
         | _ -> [ c ] :: groups)
       cells [])

(* A cache key's state in one run's single-flight table. *)
type slot = Searching | Found of Cell.outcome | Raised of exn

let run ?(jobs = 1) ?(max_nodes = 200_000) ?max_millis ?(spin_fuel = 6)
    ?stop ?(obs = Obs.Telemetry.null) ~cache plan =
  let stop =
    match stop with Some s -> s | None -> Atomic.make false
  in
  (* Pin the process-global spin fuel for the whole campaign. Each
     explore call saves/sets/restores this ref itself; with concurrent
     cells the first finisher would restore the pre-campaign value
     (1e6 at startup) under the feet of still-running searches and blow
     their busy-wait bound. Pinning here makes every save/set/restore
     write the same value, so the race is value-free. This is also why
     spin fuel is campaign-level and not a cell axis. *)
  let saved_fuel = !Tsim.Prog.default_spin_fuel in
  Tsim.Prog.default_spin_fuel := spin_fuel;
  Fun.protect
    ~finally:(fun () -> Tsim.Prog.default_spin_fuel := saved_fuel)
  @@ fun () ->
  let cap = max_nodes in
  (* validate everything before spending any budget *)
  List.iter Runner.resolve plan.grid;
  List.iter
    (fun spec ->
      Runner.resolve (cell_at spec spec.lo);
      Runner.resolve (cell_at spec spec.hi))
    plan.brackets;
  let grid = planned plan.grid in
  let groups = by_search grid in
  let brackets = Array.of_list plan.brackets in
  (* Outcomes depend on the spin fuel, which is not a cell axis, so the
     cache holds them under the search key plus the fuel they were found
     at: a resume at another fuel recomputes rather than trusting them. *)
  let cache_key cell =
    Printf.sprintf "%s fuel=%d" (Cell.search_key cell) spin_fuel
  in
  let traced = Obs.Telemetry.enabled obs in
  let total_cells = List.length grid in
  if traced then
    Obs.Telemetry.instant obs "campaign.plan"
      ~args:
        [
          ("cells", Obs.Json.Int total_cells);
          ("brackets", Obs.Json.Int (Array.length brackets));
          ("jobs", Obs.Json.Int jobs);
          ("max_nodes", Obs.Json.Int cap);
        ];
  (* [m] guards the single-flight table, the cache, the counters and the
     hub: each worker emits its own telemetry while holding it. *)
  let m = Mutex.create () and changed = Condition.create () in
  let slots = Hashtbl.create 64 in
  let executed = ref 0 and shared = ref 0 and hits = ref 0 in
  let done_cells = ref 0 in
  let t_start = Unix.gettimeofday () in
  let last_beat = ref t_start in
  (* ~1 Hz progress, under [m] *)
  let heartbeat () =
    let now = Unix.gettimeofday () in
    if traced && now -. !last_beat >= 1.0 then begin
      last_beat := now;
      let p =
        if total_cells = 0 then 1.0
        else float_of_int !done_cells /. float_of_int total_cells
      in
      Obs.Telemetry.gauge obs "campaign.progress" p;
      if p > 0.0 then
        Obs.Telemetry.gauge obs "campaign.eta_s"
          ((now -. t_start) *. (1.0 -. p) /. p);
      Obs.Telemetry.instant obs "campaign.heartbeat"
        ~args:
          [
            ("done", Obs.Json.Int !done_cells);
            ("total", Obs.Json.Int total_cells);
            ("executed", Obs.Json.Int !executed);
            ("hits", Obs.Json.Int !hits);
          ]
    end
  in
  let cell_args cell (o : Cell.outcome) ~cached =
    [
      ("key", Obs.Json.String (Cell.key cell));
      ("verdict", Obs.Json.String (Cell.verdict_to_string o.Cell.verdict));
      ("nodes", Obs.Json.Int o.Cell.nodes);
      ("cached", Obs.Json.Bool cached);
    ]
  in
  (* under [m]: [cells] answered without a search *)
  let hit tid cells o =
    hits := !hits + List.length cells;
    if traced then
      List.iter
        (fun cell ->
          Obs.Telemetry.instant obs ~tid
            ~args:(cell_args cell o ~cached:true)
            "campaign.cell")
        cells
  in
  (* The pool: the calling domain is worker 0, and up to [jobs - 1]
     helpers are spawned when the first search starts, so a run the
     cache answers starts no domain. Tasks are the brackets, in plan
     order, then the grid's search groups in schedule order, taken from
     one shared index; each writes only its own result slot, read after
     the join. *)
  let n_brackets = Array.length brackets in
  let n_tasks = n_brackets + Array.length groups in
  let answered =
    Array.map (fun spec -> { spec; answer = None; evals = 0; probed = [] })
      brackets
  and searched = Array.make (Array.length groups) [] in
  let next = Atomic.make 0 and halt = Atomic.make false in
  let spawned = ref false and helpers = ref [] in
  let rec work tid =
    (* a task that raises stops the pool; [run] re-raises after the join *)
    match take tid with
    | () -> None
    | exception e ->
        Atomic.set halt true;
        Some e
  and take tid =
    if not (Atomic.get halt) then begin
      let i = Atomic.fetch_and_add next 1 in
      if i < n_tasks then begin
        if i < n_brackets then run_bracket tid i
        else run_group tid (i - n_brackets);
        take tid
      end
    end
  (* Every search a grid group or a probe asks for: this run's table,
     else the disk cache, else one search by the first of [cells] while
     other askers of its key wait. Once [stop] is set it answers only
     from the table or the cache. *)
  and ask tid cells =
    let cell = List.hd cells and others = List.length cells - 1 in
    let key = cache_key cell in
    let known =
      Mutex.protect m (fun () ->
          let rec lookup () =
            match Hashtbl.find_opt slots key with
            | Some Searching ->
                Condition.wait changed m;
                lookup ()
            | Some (Found o) ->
                hit tid [ cell ] o;
                shared := !shared + others;
                `Known (o, false)
            | Some (Raised e) -> raise e
            | None -> (
                match Cache.find cache key with
                | Some o when Cell.usable o ~budget_nodes:cap ->
                    hit tid cells o;
                    `Known (o, true)
                | _ when Atomic.get stop -> `Stopped
                | _ ->
                    Hashtbl.replace slots key Searching;
                    `Search)
          in
          lookup ())
    in
    match known with
    | `Known answer -> Some answer
    | `Stopped -> None
    | `Search -> (
        match
          if not !spawned then start_helpers ();
          let ts0 = Obs.Telemetry.now_us obs in
          (ts0, Runner.run ~stop ?max_millis ~spin_fuel ~budget_nodes:cap cell)
        with
        | ts0, outcome ->
            let ts1 = Obs.Telemetry.now_us obs in
            Mutex.protect m (fun () ->
                Hashtbl.replace slots key (Found outcome);
                Condition.broadcast changed;
                incr executed;
                shared := !shared + others;
                if traced then
                  Obs.Telemetry.span_at obs ~tid ~ts0 ~ts1
                    ~args:(cell_args cell outcome ~cached:false)
                    "campaign.cell";
                if cacheable outcome then Cache.add cache key outcome;
                heartbeat ());
            Some (outcome, false)
        | exception e ->
            Mutex.protect m (fun () ->
                Hashtbl.replace slots key (Raised e);
                Condition.broadcast changed);
            raise e)
  (* Only worker 0 runs before the first search, so only it starts the
     helpers, one at a time: if a spawn fails, the helpers already
     started are still joined, and [ask] records the failure for the
     key's other askers. *)
  and start_helpers () =
    spawned := true;
    for k = 1 to min (jobs - 1) (n_tasks - Atomic.get next) do
      helpers := Domain.spawn (fun () -> work k) :: !helpers
    done
  and run_group tid i =
    let group = groups.(i) in
    match ask tid group with
    | None -> ()
    | Some (outcome, from_cache) ->
        searched.(i) <-
          List.map (fun cell -> { cell; outcome; from_cache }) group;
        Mutex.protect m (fun () ->
            done_cells := !done_cells + List.length group;
            heartbeat ())
  and run_bracket tid i =
    let spec = brackets.(i) in
    let stats = Bracket.new_stats () in
    (* after [stop], a partial may be an interrupted search *)
    let p x =
      match ask tid [ cell_at spec x ] with
      | Some (o, _) when Cell.definitive o || not (Atomic.get stop) ->
          predicate spec o
      | _ -> raise Interrupted
    in
    let answer =
      try
        match spec.goal with
        | Max_exhaustive_n ->
            Bracket.greatest ~stats ~lo:spec.lo ~hi:spec.hi p
        | Min_n_fences _ | Min_crashes_refute | Min_aborts_refute ->
            Bracket.least ~stats ~lo:spec.lo ~hi:spec.hi p
      with Interrupted -> None
    in
    let evals = stats.Bracket.evals in
    answered.(i) <-
      {
        spec;
        answer;
        evals;
        probed =
          List.sort
            (fun (a, _) (b, _) -> Stdlib.compare a b)
            stats.Bracket.probed;
      };
    if traced then
      Mutex.protect m (fun () ->
          Obs.Telemetry.instant obs "campaign.bracket"
            ~args:
              [
                ("goal", Obs.Json.String (goal_name spec.goal));
                ("base", Obs.Json.String (Cell.key spec.base));
                ( "answer",
                  match answer with
                  | Some a -> Obs.Json.Int a
                  | None -> Obs.Json.Null );
                ("evals", Obs.Json.Int evals);
              ])
  in
  let failed = work 0 in
  let failed =
    List.fold_left
      (fun failed d ->
        let e = Domain.join d in
        if Option.is_some failed then failed else e)
      failed (List.rev !helpers)
  in
  Option.iter raise failed;
  {
    cells =
      List.sort
        (fun a b -> Cell.compare a.cell b.cell)
        (List.concat (Array.to_list searched));
    brackets = Array.to_list answered;
    interrupted = Atomic.get stop;
    executed = !executed;
    shared = !shared;
    hits = !hits;
  }

(* --- report ------------------------------------------------------------ *)

let report_version = 1

let report_json r =
  let open Obs.Json in
  let cell_json cr =
    Obj
      [
        ("key", String (Cell.key cr.cell));
        ("outcome", Cell.outcome_to_json cr.outcome);
      ]
  in
  let bracket_json br =
    let target =
      match br.spec.goal with
      | Min_n_fences k -> [ ("k", Int k) ]
      | _ -> []
    in
    Obj
      ([ ("goal", String (goal_name br.spec.goal)) ]
      @ target
      @ [
          ("base", String (Cell.key br.spec.base));
          ("lo", Int br.spec.lo);
          ("hi", Int br.spec.hi);
          ( "answer",
            match br.answer with Some a -> Int a | None -> Null );
          ("evals", Int br.evals);
          ( "probed",
            List
              (Stdlib.List.map
                 (fun (x, v) -> List [ Int x; Bool v ])
                 br.probed) );
        ])
  in
  Obj
    [
      ("format", String "price_adaptive.campaign.report");
      ("version", Int report_version);
      ("complete", Bool (not r.interrupted));
      ("cells", List (Stdlib.List.map cell_json r.cells));
      ("brackets", List (Stdlib.List.map bracket_json r.brackets));
    ]

let validate_report j =
  let open Obs.Json in
  let check cond msg = if cond then Ok () else Error msg in
  let ( let* ) = Stdlib.Result.bind in
  let* () =
    check
      (member "format" j = Some (String "price_adaptive.campaign.report"))
      "missing or wrong format field"
  in
  let* () =
    match member "version" j with
    | Some (Int v) when v >= 1 && v <= report_version -> Ok ()
    | Some (Int v) -> Error (Printf.sprintf "unsupported version %d" v)
    | _ -> Error "missing version field"
  in
  let* () =
    match member "complete" j with
    | Some (Bool _) -> Ok ()
    | _ -> Error "missing complete field"
  in
  let* cells =
    match member "cells" j with
    | Some (List cs) -> Ok cs
    | _ -> Error "missing cells list"
  in
  let* keys =
    Stdlib.List.fold_left
      (fun acc c ->
        let* acc = acc in
        match (member "key" c, member "outcome" c) with
        | Some (String k), Some oj -> (
            match Cell.of_key k with
            | Error m -> Error (Printf.sprintf "bad cell key %S: %s" k m)
            | Ok cell -> (
                let* () =
                  check
                    (Cell.key cell = k)
                    (Printf.sprintf "non-canonical cell key %S" k)
                in
                match Cell.outcome_of_json oj with
                | Error m ->
                    Error (Printf.sprintf "bad outcome for %S: %s" k m)
                | Ok _ -> Ok (k :: acc)))
        | _ -> Error "cell entry missing key/outcome")
      (Ok []) cells
  in
  let* () =
    (* keys accumulated newest-first, so ascending input reads as a
       strictly descending list here *)
    let rec descending = function
      | a :: (b :: _ as rest) ->
          if Stdlib.String.compare b a < 0 then descending rest
          else Error "cells not in strictly ascending key order"
      | _ -> Ok ()
    in
    descending keys
  in
  let* brackets =
    match member "brackets" j with
    | Some (List bs) -> Ok bs
    | _ -> Error "missing brackets list"
  in
  Stdlib.List.fold_left
    (fun acc b ->
      let* () = acc in
      let* () =
        match member "goal" b with
        | Some
            (String
               ( "min-n-fences" | "max-exhaustive-n" | "min-crashes-refute"
               | "min-aborts-refute" )) ->
            Ok ()
        | _ -> Error "bracket entry with unknown goal"
      in
      let* () =
        match member "base" b with
        | Some (String k) -> (
            match Cell.of_key k with
            | Ok _ -> Ok ()
            | Error m -> Error (Printf.sprintf "bad bracket base %S: %s" k m))
        | _ -> Error "bracket entry missing base"
      in
      let* () =
        match (member "lo" b, member "hi" b, member "evals" b) with
        | Some (Int _), Some (Int _), Some (Int _) -> Ok ()
        | _ -> Error "bracket entry missing lo/hi/evals"
      in
      let* () =
        match member "answer" b with
        | Some (Int _) | Some Null -> Ok ()
        | _ -> Error "bracket entry missing answer"
      in
      match member "probed" b with
      | Some (List ps) ->
          Stdlib.List.fold_left
            (fun acc p ->
              let* () = acc in
              match p with
              | List [ Int _; Bool _ ] -> Ok ()
              | _ -> Error "bracket probed entry must be [point, bool]")
            (Ok ()) ps
      | _ -> Error "bracket entry missing probed")
    (Ok ()) brackets
