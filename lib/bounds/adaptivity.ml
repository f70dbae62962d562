(* Adaptivity functions f(k) as first-class values.

   The paper's tradeoff is parameterized by the growth rate of f; the
   corollaries instantiate f linear and exponential. Values of f are
   carried as floats because the exponential family overflows integers for
   the i-ranges the sweeps explore. *)

type t = { name : string; eval : int -> float }

let eval f i = f.eval i
let name f = f.name

let linear c =
  { name = Printf.sprintf "f(i) = %g*i" c; eval = (fun i -> c *. float_of_int i) }

let exponential c =
  {
    name = Printf.sprintf "f(i) = 2^(%g*i)" c;
    eval = (fun i -> Float.pow 2.0 (c *. float_of_int i));
  }

let polynomial ~c ~d =
  {
    name = Printf.sprintf "f(i) = %g*i^%g" c d;
    eval = (fun i -> c *. Float.pow (float_of_int i) d);
  }

let constant c = { name = Printf.sprintf "f(i) = %g" c; eval = (fun _ -> c) }
