(* Campaign grid cells and their canonical, byte-stable identity.

   The key is the contract here: it feeds the persistent result cache,
   so it is rendered field by field in a fixed order with hand-written
   enum names. No Marshal, no Hashtbl.hash, no hash-table iteration —
   all three are unstable across builds or process restarts, and a key
   that drifts silently would make the cache return stale results for
   new semantics (or recompute everything forever). *)

open Tsim

type kind = Verify | Adversary

let kind_name = function Verify -> "verify" | Adversary -> "adversary"

type t = {
  kind : kind;
  lock : string;
  n : int;
  model : Config.mem_model;
  ordering : Config.ordering;
  passages : int;
  max_crashes : int;
  max_aborts : int;
  crash_semantics : Config.crash_semantics;
  store : Config.store_mode;
  por : bool;
}

let make ?(kind = Verify) ?(model = Config.Cc_wb) ?(ordering = Config.Tso)
    ?(passages = 1) ?(max_crashes = 0) ?(max_aborts = 0)
    ?(crash_semantics = Config.Drop_buffer) ?(store = Config.Store_exact)
    ?(por = true) ~lock ~n () =
  { kind; lock; n; model; ordering; passages; max_crashes; max_aborts;
    crash_semantics; store; por }

(* Bump on any change that can alter a cell's verdict, node count or
   fence count (explorer semantics, POR, adversary construction, cache
   line format). Old caches are then recomputed wholesale. *)
let code_salt = "pa-campaign-3"

(* --- canonical renderings (stable by construction) --------------------- *)

let model_code = function
  | Config.Dsm -> "dsm"
  | Config.Cc_wt -> "cc-wt"
  | Config.Cc_wb -> "cc-wb"

let model_of_code = function
  | "dsm" -> Some Config.Dsm
  | "cc-wt" -> Some Config.Cc_wt
  | "cc-wb" -> Some Config.Cc_wb
  | _ -> None

let ordering_code = function Config.Tso -> "tso" | Config.Pso -> "pso"

let ordering_of_code = function
  | "tso" -> Some Config.Tso
  | "pso" -> Some Config.Pso
  | _ -> None

let csem_code = function
  | Config.Drop_buffer -> "drop"
  | Config.Flush_buffer -> "flush"
  | Config.Atomic_prefix -> "prefix"

let csem_of_code = function
  | "drop" -> Some Config.Drop_buffer
  | "flush" -> Some Config.Flush_buffer
  | "prefix" -> Some Config.Atomic_prefix
  | _ -> None

let store_code = function
  | Config.Store_exact -> "exact"
  | Config.Store_bitstate { log2_bits; hashes } ->
      Printf.sprintf "bitstate:%d:%d" log2_bits hashes

let store_of_code s =
  match String.split_on_char ':' s with
  | [ "exact" ] -> Some Config.Store_exact
  | [ "bitstate"; b; h ] -> (
      match (int_of_string_opt b, int_of_string_opt h) with
      | Some log2_bits, Some hashes ->
          Some (Config.Store_bitstate { log2_bits; hashes })
      | _ -> None)
  | _ -> None

let render ~model c =
  Printf.sprintf
    "%s lock=%s n=%d model=%s ord=%s pass=%d crashes=%d aborts=%d csem=%s \
     store=%s por=%s"
    (kind_name c.kind) c.lock c.n model
    (ordering_code c.ordering)
    c.passages c.max_crashes c.max_aborts
    (csem_code c.crash_semantics)
    (store_code c.store)
    (if c.por then "on" else "off")

let key c = render ~model:(model_code c.model) c

(* Verify searches run on lean machines, which never read the model
   (the interface states the rule); adversary cells keep it. *)
let search_key c =
  match c.kind with
  | Verify -> render ~model:"*" c
  | Adversary -> key c

let of_key s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.split_on_char ' ' s |> List.filter (fun t -> t <> "") with
  | [] -> err "empty key"
  | kind_tok :: fields -> (
      let kind =
        match kind_tok with
        | "verify" -> Some Verify
        | "adversary" -> Some Adversary
        | _ -> None
      in
      match kind with
      | None -> err "unknown cell kind %S" kind_tok
      | Some kind -> (
          let tbl = ref [] in
          let bad = ref None in
          List.iter
            (fun f ->
              match String.index_opt f '=' with
              | Some i ->
                  tbl :=
                    ( String.sub f 0 i,
                      String.sub f (i + 1) (String.length f - i - 1) )
                    :: !tbl
              | None -> if !bad = None then bad := Some f)
            fields;
          match !bad with
          | Some f -> err "malformed field %S" f
          | None -> (
              let get k = List.assoc_opt k !tbl in
              let int k = Option.bind (get k) int_of_string_opt in
              match
                ( get "lock",
                  int "n",
                  Option.bind (get "model") model_of_code,
                  Option.bind (get "ord") ordering_of_code,
                  int "pass",
                  int "crashes",
                  int "aborts",
                  Option.bind (get "csem") csem_of_code,
                  Option.bind (get "store") store_of_code,
                  get "por" )
              with
              | ( Some lock,
                  Some n,
                  Some model,
                  Some ordering,
                  Some passages,
                  Some max_crashes,
                  Some max_aborts,
                  Some crash_semantics,
                  Some store,
                  Some por )
                when por = "on" || por = "off" ->
                  Ok
                    { kind; lock; n; model; ordering; passages; max_crashes;
                      max_aborts; crash_semantics; store; por = por = "on" }
              | _ -> err "missing or malformed field in key %S" s)))

let compare a b = String.compare (key a) (key b)
let equal a b = key a = key b

(* Relative cost for cheap-first scheduling. State spaces grow roughly
   exponentially in the number of concurrently-scheduled activities:
   each live process contributes ~n alternatives per step, each unit of
   fault budget multiplies the branching again, extra passages deepen
   the tree, and disabling the reduction forfeits the ~2.4x node cut.
   Only the ordering of the values matters. *)
let cost_hint c =
  match c.kind with
  | Adversary ->
      (* the construction is polynomial in n, far cheaper than search *)
      float_of_int (c.n * c.n)
  | Verify ->
      let n = float_of_int c.n in
      let faults = float_of_int (c.max_crashes + c.max_aborts) in
      let base = n ** (2.0 +. n) in
      base
      *. (4.0 ** faults)
      *. float_of_int c.passages
      *. (if c.por then 1.0 else 3.0)
      *. if c.ordering = Config.Pso then 2.0 else 1.0

(* --- outcomes ---------------------------------------------------------- *)

type verdict =
  | Verified
  | Violation of string list
  | Partial of string
  | Fences of int

let verdict_to_string = function
  | Verified -> "verified"
  | Violation kinds -> "violation:" ^ String.concat "," kinds
  | Partial reason -> "partial:" ^ reason
  | Fences k -> Printf.sprintf "fences=%d" k

type outcome = {
  verdict : verdict;
  nodes : int;
  max_depth : int;
  budget_nodes : int;
}

let definitive o = match o.verdict with Partial _ -> false | _ -> true

let usable o ~budget_nodes =
  definitive o || o.budget_nodes >= budget_nodes

let outcome_to_json o =
  let open Obs.Json in
  let verdict_fields =
    match o.verdict with
    | Verified -> [ ("verdict", String "verified") ]
    | Violation kinds ->
        [ ("verdict", String "violation");
          ("kinds", List (List.map (fun k -> String k) kinds)) ]
    | Partial reason ->
        [ ("verdict", String "partial"); ("reason", String reason) ]
    | Fences k -> [ ("verdict", String "fences"); ("fences", Int k) ]
  in
  Obj
    (verdict_fields
    @ [
        ("nodes", Int o.nodes);
        ("max_depth", Int o.max_depth);
        ("budget_nodes", Int o.budget_nodes);
      ])

let outcome_of_json j =
  let open Obs.Json in
  let str = function String s -> Some s | _ -> None in
  let num = function Int i -> Some i | _ -> None in
  let field k = member k j in
  match
    ( Option.bind (field "verdict") str,
      Option.bind (field "nodes") num,
      Option.bind (field "max_depth") num,
      Option.bind (field "budget_nodes") num )
  with
  | Some v, Some nodes, Some max_depth, Some budget_nodes -> (
      let mk verdict = Ok { verdict; nodes; max_depth; budget_nodes } in
      match v with
      | "verified" -> mk Verified
      | "violation" -> (
          match field "kinds" with
          | Some (List ks) ->
              let kinds = List.filter_map str ks in
              if List.length kinds = List.length ks then
                mk (Violation kinds)
              else Error "violation kinds must be strings"
          | _ -> Error "violation outcome missing kinds")
      | "partial" -> (
          match Option.bind (field "reason") str with
          | Some reason -> mk (Partial reason)
          | None -> Error "partial outcome missing reason")
      | "fences" -> (
          match Option.bind (field "fences") num with
          | Some k -> mk (Fences k)
          | None -> Error "fences outcome missing count")
      | v -> Error (Printf.sprintf "unknown verdict %S" v))
  | _ -> Error "outcome missing verdict/nodes/max_depth/budget_nodes"
