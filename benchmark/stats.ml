(* Small measurement helpers shared by the parent and its child processes:
   order statistics, process resource readings, JSON access. *)

let sorted xs = List.sort compare xs

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)], so numbers printed here match what an
   outside script computes from the same samples. A single sample is its
   own quartiles. *)
let quartiles xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.quartiles: no samples"
  | [ x ] -> (x, x, x)
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let m = n + 1 in
      let q i =
        let j = max 1 (min (n - 1) (i * m / 4)) in
        let delta = float_of_int ((i * m) - (j * 4)) in
        ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
      in
      (q 1, q 2, q 3)

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Seconds of [f ()], with its result. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

(* Median over [rounds] timings of [f] — the per-layer microbenchmarks
   report medians so one descheduled round does not move them. *)
let median_time ~rounds f =
  median (List.init rounds (fun _ -> fst (timed f)))

(* --- host speed -------------------------------------------------------------

   The host is shared, and how fast the same code runs drifts with the
   other tenants' load: by 10% to 50% over a few minutes, on every
   workload at once, far more than the bounds. [calibration_s] times a
   fixed loop of the benchmark's own, built on the standard library
   alone: hashing, stores scattered over a 16 MiB table, and short-lived
   allocation. Contention slows the loop more than the workloads: over
   40 runs on a 2-vCPU VM, log(run time) rose by 0.39 to 0.62 times
   log(calibration time) on each of the four workloads. So a sample's
   times are brought to reference speed by the square root of
   [reference_calibration_s] over the loop's time around the sample
   (README.md, "Host speed"). A change to the libraries moves the scaled
   times as it moves the raw ones, since the loop does not call them. *)

let reference_calibration_s = 0.2

let calibration_table = lazy (Array.make (1 lsl 21) 0)

let calibration_s () =
  let a = Lazy.force calibration_table in
  let mask = Array.length a - 1 in
  let h = Hashtbl.create 4096 in
  let x = ref 0 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to 4_000_000 do
    let k = (i * 0x9E3779B1) land mask in
    a.(k) <- a.(k) + i;
    x := !x + a.((k lxor !x) land mask);
    if i land 7 = 0 then Hashtbl.replace h (k land 0xFFFF) [ i; !x ]
  done;
  let t = Unix.gettimeofday () -. t0 in
  ignore (Sys.opaque_identity !x);
  t

(* The factor that brings times measured while the loop took
   [calibration] seconds to reference speed. *)
let speed_scale calibration = sqrt (reference_calibration_s /. calibration)

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A "VmHWM:   1234 kB" style field of /proc/self/status, in kB. *)
let proc_status_kb field =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> failwith ("no " ^ field ^ " in /proc/self/status")
        | line ->
            let prefix = field ^ ":" in
            let lp = String.length prefix in
            if String.length line > lp && String.sub line 0 lp = prefix then
              Scanf.sscanf (String.sub line lp (String.length line - lp))
                " %d kB" Fun.id
            else go ()
      in
      go ())

let peak_rss_mb () = float_of_int (proc_status_kb "VmHWM") /. 1024.0
let rss_kb () = proc_status_kb "VmRSS"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let parse_json_file path =
  match Obs.Json.parse (read_file path) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let member_exn name j =
  match Obs.Json.member name j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing JSON field %S" name)

let to_float = function
  | Obs.Json.Int i -> float_of_int i
  | Obs.Json.Float f -> f
  | j -> failwith ("not a number: " ^ Obs.Json.to_string j)

let to_string = function
  | Obs.Json.String s -> s
  | j -> failwith ("not a string: " ^ Obs.Json.to_string j)

let to_list = function
  | Obs.Json.List l -> l
  | j -> failwith ("not a list: " ^ Obs.Json.to_string j)

let to_obj = function
  | Obs.Json.Obj l -> l
  | j -> failwith ("not an object: " ^ Obs.Json.to_string j)
