(* Paged per-variable tables, held to a flat array: get/set, copies that
   share nothing with their source, and equality that does not depend on
   which pages were allocated. Sizes include exact multiples of the
   256-cell page and sizes that are not; indices favour page edges. *)

open Tsim

let gen_case =
  QCheck.Gen.(
    oneof [ oneofl [ 1; 255; 256; 257; 512; 600 ]; int_range 1 1100 ]
    >>= fun size ->
    let edges =
      List.filter (fun i -> i < size) [ 0; 255; 256; 511; 512; size - 1 ]
    in
    let idx = frequency [ (1, oneofl edges); (3, int_bound (size - 1)) ] in
    (* small values, so writes of the default (0) and equal tables are
       common *)
    let writes = list_size (int_bound 40) (pair idx (int_bound 3)) in
    map
      (fun (w1, (w2, w3)) -> (size, w1, w2, w3))
      (pair writes (pair writes writes)))

let print_case =
  let writes ws =
    String.concat ";" (List.map (fun (i, x) -> Printf.sprintf "%d:=%d" i x) ws)
  in
  fun (size, w1, w2, w3) ->
    Printf.sprintf "size %d, [%s] [%s] [%s]" size (writes w1) (writes w2)
      (writes w3)

let arb_case = QCheck.make ~print:print_case gen_case

let apply t model =
  List.iter (fun (i, x) ->
      Paged.set t i x;
      model.(i) <- x)

let agrees t model =
  let ok = ref true in
  Array.iteri (fun i x -> if Paged.get t i <> x then ok := false) model;
  !ok

let raises f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* Write, copy, then write the copy and the source apart: each must read
   as its own flat model, so the copy aliases no page of the source —
   neither a page the source had written nor one it allocates later. *)
let prop_flat_model =
  QCheck.Test.make ~name:"get/set/copy match a flat array" ~count:300 arb_case
    (fun (size, w1, w2, w3) ->
      let t = Paged.create ~size 0 and mt = Array.make size 0 in
      apply t mt w1;
      let c = Paged.copy t and mc = Array.copy mt in
      apply c mc w2;
      apply t mt w3;
      agrees t mt && agrees c mc
      && raises (fun () -> Paged.get t size)
      && raises (fun () -> Paged.set t (-1) 0))

(* [equal] is the flat arrays' equality: a table rebuilt from its model's
   non-default cells, top index first, equals the original even where the
   original holds pages written back to all-default. *)
let prop_equal =
  QCheck.Test.make ~name:"equality matches a flat array's" ~count:300 arb_case
    (fun (size, w1, w2, _) ->
      let a = Paged.create ~size 0 and ma = Array.make size 0 in
      let b = Paged.create ~size 0 and mb = Array.make size 0 in
      apply a ma w1;
      apply b mb w2;
      let rebuilt = Paged.create ~size 0 in
      for i = size - 1 downto 0 do
        if ma.(i) <> 0 then Paged.set rebuilt i ma.(i)
      done;
      let flipped = Paged.copy rebuilt in
      Paged.set flipped (size - 1) (ma.(size - 1) + 1);
      Paged.equal a b = (ma = mb)
      && Paged.equal b a = (ma = mb)
      && Paged.equal a rebuilt && Paged.equal rebuilt a
      && (not (Paged.equal a flipped))
      && not (Paged.equal a (Paged.create ~size:(size + 1) 0)))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_flat_model;
    QCheck_alcotest.to_alcotest prop_equal;
  ]
