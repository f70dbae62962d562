(* The shared fingerprint store (Fpstore) and the work-stealing deque
   (Deque) — the two structures under the parallel explorer.

   Sequential tests pin the visit protocol (claim, mask-aware cover
   accounting, the fp=0 remap) and the exact store's growth: from its
   smallest size it doubles its shards past any load, keeping every
   entry and every state's remaining moves. Concurrent tests hammer the
   structures from real domains and assert the invariants the
   explorer's soundness rests on: per-fingerprint granted covers union
   to the requested covers (no interleaving is ever lost), also while
   the shards grow under the claims, occupancy counts distinct
   fingerprints, and the deque neither duplicates nor loses items.

   An exact search's verdict line carries no suffix at one or two
   domains. Bitstate is exercised end to end: a search over a space
   larger than its bit array must still verify and must confess a
   nonzero omission probability. *)

open Tsim
open Tsim.Prog
module F = Mcheck.Fpstore
module D = Mcheck.Deque

(* --- sequential visit protocol ---------------------------------------- *)

let exact () = F.create ~mode:Config.Store_exact ~expected:10_000

let test_exact_claim () =
  let s = exact () in
  (match F.visit s ~fp:42 ~cover:(-1) with
  | F.New -> ()
  | _ -> Alcotest.fail "first visit must be New");
  (match F.visit s ~fp:42 ~cover:(-1) with
  | F.Covered -> ()
  | _ -> Alcotest.fail "revisit with same cover must be Covered");
  Alcotest.(check int) "one entry" 1 (F.entries s);
  Alcotest.(check bool) "room for expected at load 1/2" true
    (F.capacity s >= 2 * 10_000)

let test_exact_mask_widening () =
  let s = exact () in
  (* claim under a narrow cover: only moves {0,1} will be explored *)
  (match F.visit s ~fp:7 ~cover:0b0011 with
  | F.New -> ()
  | _ -> Alcotest.fail "first visit must be New");
  (* same cover again: fully covered *)
  (match F.visit s ~fp:7 ~cover:0b0011 with
  | F.Covered -> ()
  | _ -> Alcotest.fail "subset revisit must be Covered");
  (* widened cover: owed exactly the new bits *)
  (match F.visit s ~fp:7 ~cover:0b0111 with
  | F.Partial fresh -> Alcotest.(check int) "fresh bits" 0b0100 fresh
  | _ -> Alcotest.fail "widened revisit must be Partial");
  (* and now that too is covered *)
  (match F.visit s ~fp:7 ~cover:0b0111 with
  | F.Covered -> ()
  | _ -> Alcotest.fail "re-revisit must be Covered");
  Alcotest.(check int) "still one entry" 1 (F.entries s)

let test_exact_zero_fp () =
  (* a genuine fingerprint of 0 must behave like any other value, not
     alias the empty-slot sentinel *)
  let s = exact () in
  (match F.visit s ~fp:0 ~cover:(-1) with
  | F.New -> ()
  | _ -> Alcotest.fail "fp=0 first visit must be New");
  (match F.visit s ~fp:0 ~cover:(-1) with
  | F.Covered -> ()
  | _ -> Alcotest.fail "fp=0 revisit must be Covered");
  Alcotest.(check int) "fp=0 occupies one slot" 1 (F.entries s)

let test_exact_distinct_fps () =
  let s = exact () in
  for i = 1 to 1000 do
    match F.visit s ~fp:(i * 0x1E3779B97F4A7C15) ~cover:(-1) with
    | F.New -> ()
    | _ -> Alcotest.fail "distinct fps must all be New"
  done;
  Alcotest.(check int) "1000 entries" 1000 (F.entries s);
  Alcotest.(check (float 0.0)) "exact mode never omits" 0.0
    (F.omission_prob s)

(* --- concurrent hammer -------------------------------------------------

   4 domains visit a shared pool of fingerprints, each visit carrying a
   per-visitor cover. Afterwards, for every fingerprint the union of
   granted move sets (New grants the full cover; Partial grants the
   fresh bits) must equal the union of all requested covers: every move
   some visitor offered to explore was handed to someone. Overlapping
   grants would be legal (re-exploration), lost bits are not.

   Two inputs: a store pre-sized for its 512 fingerprints, and one that
   starts at its smallest size ([~expected:0], 64 slots a shard) with
   131,072 fingerprints, about 2,048 a shard, so every shard doubles six
   or seven times (64 → 4,096 or 8,192 slots) while the four domains
   claim. *)

let test_concurrent_no_lost_cover ~expected ~n_fps ~rounds () =
  let n_domains = 4 in
  let s = F.create ~mode:Config.Store_exact ~expected in
  let initial = F.capacity s in
  let fp_of i = ((i + 1) * 0x2545F4914F6CDD1D) land max_int in
  (* per-domain grant log: grants.(d).(i) accumulates the move bits domain
     d was told to explore for fingerprint i *)
  let grants = Array.init n_domains (fun _ -> Array.make n_fps 0) in
  let covers = Array.init n_domains (fun d -> 1 lsl (d * 2 mod 6)) in
  let worker d () =
    let mine = grants.(d) in
    for _ = 1 to rounds do
      for i = 0 to n_fps - 1 do
        (* each domain offers its own cover bit plus a shared bit *)
        let cover = covers.(d) lor 0b1000000 in
        match F.visit s ~fp:(fp_of i) ~cover with
        | F.New -> mine.(i) <- mine.(i) lor cover
        | F.Partial fresh -> mine.(i) <- mine.(i) lor fresh
        | F.Covered -> ()
      done
    done
  in
  let ds = Array.init n_domains (fun d -> Domain.spawn (worker d)) in
  Array.iter Domain.join ds;
  let want =
    Array.fold_left (fun acc c -> acc lor c) 0b1000000 covers
  in
  for i = 0 to n_fps - 1 do
    let got =
      Array.fold_left (fun acc g -> acc lor g.(i)) 0 grants
    in
    if got <> want then
      Alcotest.failf "fp %d: granted cover %x <> requested union %x" i got
        want
  done;
  Alcotest.(check int) "entries = distinct fingerprints" n_fps (F.entries s);
  Alcotest.(check bool)
    (Printf.sprintf "capacity %d >= 2 x entries" (F.capacity s))
    true
    (F.capacity s >= 2 * n_fps);
  if expected = 0 then
    Alcotest.(check bool)
      (Printf.sprintf "grew %d -> %d slots, at least 8x" initial
         (F.capacity s))
      true
      (F.capacity s >= 8 * initial)

let test_concurrent_inputs () =
  test_concurrent_no_lost_cover ~expected:2048 ~n_fps:512 ~rounds:50 ();
  test_concurrent_no_lost_cover ~expected:0 ~n_fps:131_072 ~rounds:2 ()

(* Growth, from the store's smallest size ([~expected:0]: 64 shards of
   64 slots). 100,000 distinct fingerprints each read [New] exactly once
   and are all kept; after every insert the capacity is at least twice
   the entries (the shards double to stay at or below load 1/2); every
   revisit reads [Covered]. A state claimed under a narrow cover
   before the growth keeps its remaining moves through the rehash: a
   widened revisit is owed exactly the new bits. *)
let test_exact_growth () =
  let s = F.create ~mode:Config.Store_exact ~expected:0 in
  Alcotest.(check int) "initial capacity" 4096 (F.capacity s);
  let narrow = 0x5EED in
  (match F.visit s ~fp:narrow ~cover:0b0011 with
  | F.New -> ()
  | _ -> Alcotest.fail "narrow claim must be New");
  let n_fps = 100_000 in
  let fp_of i = ((i + 1) * 0x2545F4914F6CDD1D) land max_int in
  for i = 0 to n_fps - 1 do
    (match F.visit s ~fp:(fp_of i) ~cover:(-1) with
    | F.New -> ()
    | _ -> Alcotest.failf "fp %d: first visit not New" i);
    if F.capacity s < 2 * F.entries s then
      Alcotest.failf "after %d inserts: capacity %d < 2 x entries %d" (i + 2)
        (F.capacity s) (F.entries s)
  done;
  Alcotest.(check int) "entries" (n_fps + 1) (F.entries s);
  for i = 0 to n_fps - 1 do
    match F.visit s ~fp:(fp_of i) ~cover:(-1) with
    | F.Covered -> ()
    | _ -> Alcotest.failf "fp %d: revisit not Covered" i
  done;
  Alcotest.(check int) "revisits store nothing" (n_fps + 1) (F.entries s);
  (match F.visit s ~fp:narrow ~cover:0b1111 with
  | F.Partial fresh -> Alcotest.(check int) "widened bits" 0b1100 fresh
  | _ -> Alcotest.fail "widened revisit after growth must be Partial");
  match F.visit s ~fp:narrow ~cover:0b1111 with
  | F.Covered -> ()
  | _ -> Alcotest.fail "re-revisit after growth must be Covered"

(* --- deque ------------------------------------------------------------- *)

let test_deque_owner_lifo () =
  let q = D.create () in
  for i = 1 to 5 do D.push q i done;
  Alcotest.(check int) "size" 5 (D.size q);
  for i = 5 downto 1 do
    match D.pop q with
    | Some v -> Alcotest.(check int) "lifo pop" i v
    | None -> Alcotest.fail "premature empty"
  done;
  Alcotest.(check bool) "empty" true (D.pop q = None)

let test_deque_thief_fifo () =
  let q = D.create () in
  for i = 1 to 5 do D.push q i done;
  for i = 1 to 5 do
    match D.steal q with
    | Some v -> Alcotest.(check int) "fifo steal" i v
    | None -> Alcotest.fail "premature empty"
  done;
  Alcotest.(check bool) "empty after steals" true (D.steal q = None)

let test_deque_grow () =
  (* push far past the 16-cell initial ring; everything must survive *)
  let q = D.create () in
  for i = 1 to 1000 do D.push q i done;
  let seen = ref 0 in
  let rec drain () =
    match D.pop q with
    | Some v -> seen := !seen + v; drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "sum of 1..1000" (1000 * 1001 / 2) !seen

let test_deque_concurrent () =
  let q = D.create () in
  let n = 20_000 and n_thieves = 3 in
  let hits = Array.make (n + 1) 0 in
  let hits_mutex = Mutex.create () in
  let record lst =
    Mutex.lock hits_mutex;
    List.iter (fun v -> hits.(v) <- hits.(v) + 1) lst;
    Mutex.unlock hits_mutex
  in
  let stop = Atomic.make false in
  let thief () =
    let mine = ref [] in
    while not (Atomic.get stop) do
      match D.steal q with
      | Some v -> mine := v :: !mine
      | None -> Domain.cpu_relax ()
    done;
    (* final sweep after the owner is done *)
    let rec sweep () =
      match D.steal q with
      | Some v -> mine := v :: !mine; sweep ()
      | None -> ()
    in
    sweep ();
    record !mine
  in
  let thieves = Array.init n_thieves (fun _ -> Domain.spawn thief) in
  let mine = ref [] in
  for i = 1 to n do
    D.push q i;
    (* interleave pops to exercise the owner/thief last-element race *)
    if i land 3 = 0 then
      match D.pop q with Some v -> mine := v :: !mine | None -> ()
  done;
  let rec drain () =
    match D.pop q with
    | Some v -> mine := v :: !mine; drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  Array.iter Domain.join thieves;
  record !mine;
  for i = 1 to n do
    if hits.(i) <> 1 then
      Alcotest.failf "item %d seen %d times (want exactly 1)" i hits.(i)
  done

(* --- exact verdicts and bitstate, end to end ---------------------------- *)

let peterson ~passages () =
  let layout = Layout.create () in
  let flag = Layout.array layout ~init:0 "flag" 2 in
  let turn = Layout.var layout ~init:0 "turn" in
  Config.make ~model:Config.Cc_wb ~check_exclusion:true ~n:2
    ~max_passages:passages ~layout
    ~entry:(fun p ->
      let* () = write flag.(p) 1 in
      let* () = write turn p in
      let* () = fence in
      let rec await fuel =
        if fuel <= 0 then raise (Prog.Spin_exhausted turn)
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

let with_store store cfg = { cfg with Config.store }

(* Exact seen set: 3022 states at two passages (por off) — nearly 3x the
   1024-bit array, so bitstate MUST be omitting states it cannot tell
   apart, and must say so. The workload is violation-free, so pruning by
   alias cannot change the verdict here; what the test pins is that the
   search completes under genuine memory pressure and that the verdict
   arrives with a confession, not silently. *)
let test_bitstate_exceeds_bound () =
  let cfg =
    with_store
      (Config.Store_bitstate { log2_bits = 10; hashes = 2 })
      (peterson ~passages:2 ())
  in
  let r = Mcheck.Explore.explore ~max_nodes:2_000_000 ~por:false cfg in
  Alcotest.(check bool) "verified" true r.Mcheck.Explore.verified;
  Alcotest.(check bool) "exhausted" true r.Mcheck.Explore.exhausted;
  let p = r.Mcheck.Explore.stats.Mcheck.Explore.omission_prob in
  Alcotest.(check bool)
    (Printf.sprintf "omission_prob %g > 0" p)
    true (p > 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "omission_prob %g <= 1" p)
    true (p <= 1.0);
  (* the bit array is far smaller than the space: fewer distinct claims
     than the exact count proves states really were conflated *)
  Alcotest.(check bool) "fewer nodes than the exact space" true
    (r.Mcheck.Explore.nodes < 3022)

(* An exact search's VERIFIED line is the plain one at one and at two
   domains: the store has no cap, so there is no saturation to confess
   and nothing appended. *)
let test_exact_verdict () =
  List.iter
    (fun domains ->
      let r =
        Mcheck.Explore.explore ~max_nodes:2_000_000 ~domains
          (peterson ~passages:1 ())
      in
      let line, code = Mcheck.Explore.render_verdict r in
      let at = Printf.sprintf " (domains %d)" domains in
      Alcotest.(check int) ("verified exit code" ^ at) 0 code;
      Alcotest.(check string) ("plain verdict line" ^ at)
        "VERIFIED: no exclusion violation or deadlock in the full \
         (deduplicated) schedule space"
        line)
    [ 1; 2 ]

(* Bitstate under domains > 1: the same shared bit array serves all
   visitors; the search must still complete and confess. *)
let test_bitstate_parallel () =
  let cfg =
    with_store
      (Config.Store_bitstate { log2_bits = 10; hashes = 2 })
      (peterson ~passages:2 ())
  in
  let r =
    Mcheck.Explore.explore ~max_nodes:2_000_000 ~por:false ~domains:4 cfg
  in
  Alcotest.(check bool) "verified" true r.Mcheck.Explore.verified;
  Alcotest.(check bool) "omission_prob > 0" true
    (r.Mcheck.Explore.stats.Mcheck.Explore.omission_prob > 0.0)

(* Unfenced Peterson: the classic TSO counterexample workload. *)
let unfenced_peterson () =
  let layout = Layout.create () in
  let flag = Layout.array layout ~init:0 "flag" 2 in
  let turn = Layout.var layout ~init:0 "turn" in
  Config.make ~model:Config.Cc_wb ~check_exclusion:true ~n:2 ~layout
    ~entry:(fun p ->
      let* () = write flag.(p) 1 in
      let* () = write turn p in
      let rec await fuel =
        if fuel <= 0 then raise (Prog.Spin_exhausted turn)
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

(* Violations must survive the bitstate mode: aliasing only ever prunes
   states, and an unfenced Peterson violation is reachable along many
   schedules, so a generously-sized bit array still finds it. *)
let test_bitstate_finds_violation () =
  let cfg =
    with_store
      (Config.Store_bitstate { log2_bits = 20; hashes = 3 })
      (unfenced_peterson ())
  in
  let r = Mcheck.Explore.explore ~max_nodes:2_000_000 ~por:false cfg in
  match r.Mcheck.Explore.violations with
  | { Mcheck.Explore.kind = `Exclusion _; _ } :: _ -> ()
  | _ -> Alcotest.fail "unfenced peterson violation lost under bitstate"

(* Bitstate composed with sleep-set POR. A one-bit store makes the first
   visit's coverage permanent, so the explorer must admit every state
   with the FULL move set (sleep mask zeroed on New) — otherwise a state
   first reached with a nonempty sleep mask hides its slept moves from
   every later path, an omission the (ones/m)^k estimate knows nothing
   about. With an array generously larger than the space, aliasing is
   negligible and bitstate+POR must reproduce the exact verdicts: the
   fenced lock verifies, the unfenced one still yields its violation. *)
let test_bitstate_por_matches_exact () =
  let bits = Config.Store_bitstate { log2_bits = 20; hashes = 3 } in
  let exact_r =
    Mcheck.Explore.explore ~max_nodes:2_000_000 ~por:true
      (peterson ~passages:1 ())
  in
  Alcotest.(check bool) "exact+por verifies" true
    exact_r.Mcheck.Explore.verified;
  let r =
    Mcheck.Explore.explore ~max_nodes:2_000_000 ~por:true
      (with_store bits (peterson ~passages:1 ()))
  in
  Alcotest.(check bool) "bitstate+por verifies too" true
    r.Mcheck.Explore.verified;
  Alcotest.(check bool) "exhausted" true r.Mcheck.Explore.exhausted;
  let v =
    Mcheck.Explore.explore ~max_nodes:2_000_000 ~por:true
      (with_store bits (unfenced_peterson ()))
  in
  match v.Mcheck.Explore.violations with
  | { Mcheck.Explore.kind = `Exclusion _; _ } :: _ -> ()
  | _ ->
      Alcotest.fail "unfenced peterson violation lost under bitstate + por"

let suite =
  [
    Alcotest.test_case "exact: claim then covered" `Quick test_exact_claim;
    Alcotest.test_case "exact: mask widening grants fresh bits" `Quick
      test_exact_mask_widening;
    Alcotest.test_case "exact: fp=0 does not alias empty" `Quick
      test_exact_zero_fp;
    Alcotest.test_case "exact: 1000 distinct fps" `Quick
      test_exact_distinct_fps;
    Alcotest.test_case "concurrent: no cover bit lost across 4 domains"
      `Quick test_concurrent_inputs;
    Alcotest.test_case "exact: grows past its initial size" `Quick
      test_exact_growth;
    Alcotest.test_case "deque: owner pops LIFO" `Quick test_deque_owner_lifo;
    Alcotest.test_case "deque: thief steals FIFO" `Quick
      test_deque_thief_fifo;
    Alcotest.test_case "deque: grow preserves items" `Quick test_deque_grow;
    Alcotest.test_case "deque: concurrent exactly-once" `Quick
      test_deque_concurrent;
    Alcotest.test_case "bitstate: verifies past the memory bound" `Quick
      test_bitstate_exceeds_bound;
    Alcotest.test_case "exact: plain VERIFIED at one and two domains"
      `Quick test_exact_verdict;
    Alcotest.test_case "bitstate: parallel domains share the bit array"
      `Quick test_bitstate_parallel;
    Alcotest.test_case "bitstate: violations survive aliasing" `Quick
      test_bitstate_finds_violation;
    Alcotest.test_case "bitstate: full cover on admit keeps POR sound"
      `Quick test_bitstate_por_matches_exact;
  ]
