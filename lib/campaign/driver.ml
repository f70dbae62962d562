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

let enums_of field of_code v =
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

let parse_grid_exn spec =
  let kinds = ref [ Cell.Verify ]
  and locks = ref []
  and ns = ref [ 2 ]
  and models = ref [ Tsim.Config.Cc_wb ]
  and ords = ref [ Tsim.Config.Tso ]
  and passes = ref [ 1 ]
  and crashes = ref [ 0 ]
  and aborts = ref [ 0 ]
  and csems = ref [ Tsim.Config.Drop_buffer ]
  and stores = ref [ Tsim.Config.Store_exact ]
  and pors = ref [ true ] in
  List.iter
    (fun tok ->
      match split_kv tok with
      | None -> fail "expected field=values, got %S" tok
      | Some (k, v) -> (
          match k with
          | "kind" -> kinds := enums_of k kind_of_code v
          | "lock" -> locks := String.split_on_char ',' v
          | "n" -> ns := ints_of k v
          | "model" -> models := enums_of k Cell.model_of_code v
          | "ord" -> ords := enums_of k Cell.ordering_of_code v
          | "pass" -> passes := ints_of k v
          | "crashes" -> crashes := ints_of k v
          | "aborts" -> aborts := ints_of k v
          | "csem" -> csems := enums_of k Cell.csem_of_code v
          | "store" -> stores := enums_of k Cell.store_of_code v
          | "por" -> pors := enums_of k por_of_code v
          | k -> fail "unknown grid field %S" k))
    (tokens_of spec);
  if !locks = [] then fail "grid needs at least one lock=...";
  (* cartesian product over every dimension *)
  List.concat_map
    (fun kind ->
      List.concat_map
        (fun lock ->
          List.concat_map
            (fun n ->
              List.concat_map
                (fun model ->
                  List.concat_map
                    (fun ordering ->
                      List.concat_map
                        (fun passages ->
                          List.concat_map
                            (fun max_crashes ->
                              List.concat_map
                                (fun max_aborts ->
                                  List.concat_map
                                    (fun crash_semantics ->
                                      List.concat_map
                                        (fun store ->
                                          List.map
                                            (fun por ->
                                              Cell.make ~kind ~model ~ordering
                                                ~passages ~max_crashes
                                                ~max_aborts ~crash_semantics
                                                ~store ~por ~lock ~n ())
                                            !pors)
                                        !stores)
                                    !csems)
                                !aborts)
                            !crashes)
                        !passes)
                    !ords)
                !models)
            !ns)
        !locks)
    !kinds

let parse_grid spec =
  match parse_grid_exn spec with
  | cells -> Ok cells
  | exception Spec_error m -> Error m

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

let parse_bracket_exn spec =
  match tokens_of spec with
  | [] -> fail "empty bracket spec"
  | goal_tok :: fields ->
      let kv = List.map (fun t ->
          match split_kv t with
          | Some kv -> kv
          | None -> fail "expected field=value, got %S" t)
          fields
      in
      let get k = List.assoc_opt k kv in
      let int_f k =
        Option.map
          (fun v ->
            match int_of_string_opt v with
            | Some x -> x
            | None -> fail "%s: bad integer %S" k v)
          (get k)
      in
      let enum_f k of_code =
        Option.map
          (fun v ->
            match of_code v with
            | Some x -> x
            | None -> fail "%s: unknown value %S" k v)
          (get k)
      in
      List.iter
        (fun (k, _) ->
          match k with
          | "lock" | "n" | "model" | "ord" | "pass" | "crashes" | "aborts"
          | "csem" | "store" | "por" | "k" | "lo" | "hi" ->
              ()
          | k -> fail "unknown bracket field %S" k)
        kv;
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
      let lock =
        match get "lock" with
        | Some l -> l
        | None -> fail "bracket needs lock=..."
      in
      let base =
        Cell.make ~kind
          ?model:(enum_f "model" Cell.model_of_code)
          ?ordering:(enum_f "ord" Cell.ordering_of_code)
          ?passages:(int_f "pass") ?max_crashes:(int_f "crashes")
          ?max_aborts:(int_f "aborts")
          ?crash_semantics:(enum_f "csem" Cell.csem_of_code)
          ?store:(enum_f "store" Cell.store_of_code)
          ?por:(enum_f "por" por_of_code) ~lock
          ~n:(Option.value (int_f "n") ~default:2)
          ()
      in
      let lo = Option.value (int_f "lo") ~default:default_lo in
      let hi = Option.value (int_f "hi") ~default:default_hi in
      if lo > hi then fail "bracket has lo=%d > hi=%d" lo hi;
      { goal; base; lo; hi }

let parse_bracket spec =
  match parse_bracket_exn spec with
  | b -> Ok b
  | exception Spec_error m -> Error m

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

(* Telemetry a worker hands to the coordinator, the only domain that
   touches the hub. [tid] is the worker's index; a search carries the
   worker's clock readings at its start and end. *)
type note =
  | Searched of {
      tid : int;
      cell : Cell.t;
      outcome : Cell.outcome;
      ts0 : int;
      ts1 : int;
    }
  | Hit of { tid : int; cell : Cell.t; outcome : Cell.outcome }
  | Answered of bracket_result

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
  (* Outcomes depend on the spin fuel, which is not a cell axis, so the
     cache holds them under the search key plus the fuel they were found
     at: a resume at another fuel recomputes rather than trusting them. *)
  let cache_key cell =
    Printf.sprintf "%s fuel=%d" (Cell.search_key cell) spin_fuel
  in
  let traced = Obs.Telemetry.enabled obs in
  let t_start = Unix.gettimeofday () in
  let last_beat = ref t_start in
  let total_cells = List.length grid in
  let heartbeat (done_cells, executed, hits) =
    let now = Unix.gettimeofday () in
    if traced && now -. !last_beat >= 1.0 then begin
      last_beat := now;
      let p =
        if total_cells = 0 then 1.0
        else float_of_int done_cells /. float_of_int total_cells
      in
      Obs.Telemetry.gauge obs "campaign.progress" p;
      if p > 0.0 then
        Obs.Telemetry.gauge obs "campaign.eta_s"
          ((now -. t_start) *. (1.0 -. p) /. p);
      Obs.Telemetry.instant obs "campaign.heartbeat"
        ~args:
          [
            ("done", Obs.Json.Int done_cells);
            ("total", Obs.Json.Int total_cells);
            ("executed", Obs.Json.Int executed);
            ("hits", Obs.Json.Int hits);
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
  let emit = function
    | Searched { tid; cell; outcome; ts0; ts1 } ->
        Obs.Telemetry.span_at obs ~tid ~ts0 ~ts1
          ~args:(cell_args cell outcome ~cached:false)
          "campaign.cell"
    | Hit { tid; cell; outcome } ->
        Obs.Telemetry.instant obs ~tid
          ~args:(cell_args cell outcome ~cached:true)
          "campaign.cell"
    | Answered br ->
        Obs.Telemetry.instant obs "campaign.bracket"
          ~args:
            [
              ("goal", Obs.Json.String (goal_name br.spec.goal));
              ("base", Obs.Json.String (Cell.key br.spec.base));
              ( "answer",
                match br.answer with
                | Some a -> Obs.Json.Int a
                | None -> Obs.Json.Null );
              ("evals", Obs.Json.Int br.evals);
            ]
  in
  let brackets = Array.of_list plan.brackets in
  if traced then
    Obs.Telemetry.instant obs "campaign.plan"
      ~args:
        [
          ("cells", Obs.Json.Int total_cells);
          ("brackets", Obs.Json.Int (Array.length brackets));
          ("jobs", Obs.Json.Int jobs);
          ("max_nodes", Obs.Json.Int cap);
        ];
  (* grid cells the cache answers are answered here, before any worker
     starts; the misses are grouped by search *)
  let hits = ref 0 in
  let results = ref [] in
  let groups =
    by_search
      (List.filter
         (fun cell ->
           match Cache.find cache (cache_key cell) with
           | Some o when Cell.usable o ~budget_nodes:cap ->
               incr hits;
               if traced then emit (Hit { tid = 0; cell; outcome = o });
               results := { cell; outcome = o; from_cache = true } :: !results;
               false
           | _ -> true)
         grid)
  in
  (* The worker pool. Its tasks are the brackets, in plan order, then the
     grid's search groups in schedule order, taken from one shared index.
     [m] guards the single-flight table, the cache, the counters and the
     notes for the coordinator; each task writes only its own result
     slot, which the coordinator reads after the join. *)
  let n_brackets = Array.length brackets in
  let n_tasks = n_brackets + Array.length groups in
  let nw = min (max 1 jobs) n_tasks in
  let m = Mutex.create () and changed = Condition.create () in
  let slots = Hashtbl.create 64 in
  let notes = Queue.create () in
  let executed = ref 0 and done_cells = ref !hits and running = ref nw in
  let note n =
    if traced then begin
      Queue.add n notes;
      Condition.broadcast changed
    end
  in
  (* Every search a grid group or a probe asks for: the disk cache, else
     this run's outcome, else one search while other askers wait. *)
  let ask tid cell =
    let key = cache_key cell in
    let known =
      Mutex.protect m (fun () ->
          let rec lookup () =
            match Hashtbl.find_opt slots key with
            | Some Searching ->
                Condition.wait changed m;
                lookup ()
            | Some (Found o) -> Some o
            | Some (Raised e) -> raise e
            | None -> (
                match Cache.find cache key with
                | Some o when Cell.usable o ~budget_nodes:cap -> Some o
                | _ ->
                    Hashtbl.replace slots key Searching;
                    None)
          in
          let known = lookup () in
          Option.iter
            (fun outcome ->
              incr hits;
              note (Hit { tid; cell; outcome }))
            known;
          known)
    in
    match known with
    | Some o -> o
    | None -> (
        let ts0 = Obs.Telemetry.now_us obs in
        match
          Runner.run ~stop ?max_millis ~spin_fuel ~budget_nodes:cap cell
        with
        | outcome ->
            let ts1 = Obs.Telemetry.now_us obs in
            Mutex.protect m (fun () ->
                Hashtbl.replace slots key (Found outcome);
                Condition.broadcast changed;
                incr executed;
                note (Searched { tid; cell; outcome; ts0; ts1 });
                if cacheable outcome then Cache.add cache key outcome);
            outcome
        | exception e ->
            Mutex.protect m (fun () ->
                Hashtbl.replace slots key (Raised e);
                Condition.broadcast changed);
            raise e)
  in
  let run_bracket tid spec =
    let stats = Bracket.new_stats () in
    let p x =
      if Atomic.get stop then raise Interrupted;
      let o = ask tid (cell_at spec x) in
      if Atomic.get stop && not (Cell.definitive o) then raise Interrupted;
      predicate spec o
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
    let br =
      {
        spec;
        answer;
        evals = stats.Bracket.evals;
        probed =
          List.sort
            (fun (a, _) (b, _) -> Stdlib.compare a b)
            stats.Bracket.probed;
      }
    in
    Mutex.protect m (fun () -> note (Answered br));
    br
  in
  let answered = Array.make n_brackets None in
  let searched = Array.make (Array.length groups) None in
  let tasks =
    Array.append
      (Array.mapi
         (fun i spec tid -> answered.(i) <- Some (run_bracket tid spec))
         brackets)
      (Array.mapi
         (fun i group tid ->
           searched.(i) <- Some (ask tid (List.hd group));
           Mutex.protect m (fun () ->
               done_cells := !done_cells + List.length group))
         groups)
  in
  let next = Atomic.make 0 and halt = Atomic.make false in
  let worker tid () =
    let rec loop () =
      if not (Atomic.get stop || Atomic.get halt) then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < n_tasks then begin
          tasks.(i) tid;
          loop ()
        end
      end
    in
    Fun.protect
      ~finally:(fun () ->
        Mutex.protect m (fun () ->
            decr running;
            Condition.broadcast changed))
      (fun () ->
        try loop ()
        with e ->
          (* the pool stops taking tasks; [run] re-raises after the join *)
          Atomic.set halt true;
          raise e)
  in
  let domains = Array.init nw (fun tid -> Domain.spawn (worker tid)) in
  (* the coordinator emits what the workers noted until the last one
     exits; it waits on [changed], never on a timer *)
  let rec coordinate () =
    let batch, live, progress =
      Mutex.protect m (fun () ->
          while !running > 0 && Queue.is_empty notes do
            Condition.wait changed m
          done;
          let batch = List.of_seq (Queue.to_seq notes) in
          Queue.clear notes;
          (batch, !running > 0, (!done_cells, !executed, !hits)))
    in
    List.iter emit batch;
    heartbeat progress;
    if live then coordinate ()
  in
  let failed =
    match coordinate () with
    | () -> None
    | exception e ->
        Atomic.set halt true;
        Some e
  in
  let failed =
    Array.fold_left
      (fun failed d ->
        match Domain.join d with
        | () -> failed
        | exception e -> if Option.is_none failed then Some e else failed)
      failed domains
  in
  Option.iter raise failed;
  let shared = ref 0 in
  Array.iteri
    (fun i group ->
      Option.iter
        (fun outcome ->
          shared := !shared + List.length group - 1;
          List.iter
            (fun cell ->
              results := { cell; outcome; from_cache = false } :: !results)
            group)
        searched.(i))
    groups;
  {
    cells = List.sort (fun a b -> Cell.compare a.cell b.cell) !results;
    brackets =
      Array.to_list
        (Array.mapi
           (fun i spec ->
             match answered.(i) with
             | Some br -> br
             | None -> { spec; answer = None; evals = 0; probed = [] })
           brackets);
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
