(* Undirected graphs over an arbitrary vertex type.

   The read and write phases of the lower-bound construction build small
   conflict graphs over the active processes (edges connect processes whose
   next accesses could leak information) and then keep an independent set of
   the size guaranteed by Turán's theorem. *)

type 'v t = {
  vertices : 'v array;
  index : ('v, int) Hashtbl.t;
  adj : (int, unit) Hashtbl.t array;  (* adjacency as hash-sets *)
  mutable edges : int;
}

let create vertices =
  let vertices = Array.of_list vertices in
  let index = Hashtbl.create (Array.length vertices) in
  Array.iteri (fun i v -> Hashtbl.replace index v i) vertices;
  {
    vertices;
    index;
    adj = Array.init (Array.length vertices) (fun _ -> Hashtbl.create 4);
    edges = 0;
  }

let order t = Array.length t.vertices
let size t = t.edges

let add_edge t u v =
  match (Hashtbl.find_opt t.index u, Hashtbl.find_opt t.index v) with
  | Some i, Some j when i <> j ->
      if not (Hashtbl.mem t.adj.(i) j) then begin
        Hashtbl.replace t.adj.(i) j ();
        Hashtbl.replace t.adj.(j) i ();
        t.edges <- t.edges + 1
      end
  | _ -> ()  (* self-loops and edges to absent vertices are ignored *)

let has_edge t u v =
  match (Hashtbl.find_opt t.index u, Hashtbl.find_opt t.index v) with
  | Some i, Some j -> Hashtbl.mem t.adj.(i) j
  | _ -> false

let degree t v =
  match Hashtbl.find_opt t.index v with
  | Some i -> Hashtbl.length t.adj.(i)
  | None -> 0

let average_degree t =
  let n = order t in
  if n = 0 then 0.0 else 2.0 *. float_of_int t.edges /. float_of_int n

let neighbours t v =
  match Hashtbl.find_opt t.index v with
  | None -> []
  | Some i -> Hashtbl.fold (fun j () acc -> t.vertices.(j) :: acc) t.adj.(i) []

let is_independent t vs =
  let rec go = function
    | [] -> true
    | v :: rest -> (not (List.exists (has_edge t v) rest)) && go rest
  in
  go vs
