(* Doubling to bracket, three-division refinement — the CloudNetworking
   search shape applied to integer threshold finding. Probes are
   memoized so analysing the interval endpoints twice costs nothing and
   [stats.evals] counts distinct explorer jobs. *)

type stats = { mutable evals : int; mutable probed : (int * bool) list }

let new_stats () = { evals = 0; probed = [] }

let memoized ?stats p =
  let seen = Hashtbl.create 16 in
  fun x ->
    match Hashtbl.find_opt seen x with
    | Some v -> v
    | None ->
        let v = p x in
        Hashtbl.add seen x v;
        (match stats with
        | Some s ->
            s.evals <- s.evals + 1;
            s.probed <- (x, v) :: s.probed
        | None -> ());
        v

let least ?stats ~lo ~hi p =
  if lo > hi then invalid_arg "Bracket.least: lo > hi";
  let p = memoized ?stats p in
  (* bracket: double the distance from the known-false end until the
     predicate flips, or the range ends with no flip. [hi] is probed
     only as a doubling point, so no probe lies above the frontier. *)
  let rec double l span =
    let x = min hi (lo + span) in
    if p x then Some (l, x) else if x = hi then None else double x (2 * span)
  in
  if p lo then Some lo
  else
    match double lo 1 with
    | None -> None
    | Some (l, h) ->
        (* three-division refinement of (l, h), where not (p l) and p h:
           evaluate the third-points m1 < m2 and keep the sub-interval
           the flip is in. Each round shrinks the interval to at most
           ~2/3 (often 1/3), so the probe count stays logarithmic. *)
        let l = ref l and h = ref h in
        while !h - !l > 1 do
          let w = !h - !l in
          let m1 = !l + max 1 (w / 3) in
          let m2 = min (!h - 1) (!l + max 2 (2 * w / 3)) in
          if p m1 then h := m1
          else if m2 > m1 && m2 < !h then
            if p m2 then begin
              l := m1;
              h := m2
            end
            else l := m2
          else l := m1
        done;
        Some !h

let greatest ?stats ~lo ~hi p =
  if lo > hi then invalid_arg "Bracket.greatest: lo > hi";
  (* the greatest x with p x (true then false) sits one below the least
     x with (not (p x)); share the memo through the same closure so the
     complement costs no extra evaluations *)
  let p = memoized ?stats p in
  if not (p lo) then None
  else
    match least ~lo ~hi (fun x -> not (p x)) with
    | None -> Some hi
    | Some first_false -> Some (first_false - 1)
