(* Single-domain mutable registries, aggregated across domains only by
   explicit [merge] at join points — exact sums, never samples. *)

type counter = { mutable c_v : int }

type timer = { mutable t_ns : int; mutable t_n : int }

(* Log-linear buckets: values below [subs] are exact, then [subs] linear
   sub-buckets per power-of-two octave (~6% relative width).  The 16
   exact slots and octaves 4 to 61, max_int's, make 944 slots. *)
let subs = 16
let n_buckets = (Sys.int_size - 4) * subs

type histogram = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_max : int;
  h_buckets : int array;
}

type metric = C of counter | T of timer | H of histogram

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let kind_name = function C _ -> "counter" | T _ -> "timer" | H _ -> "histogram"

let wrong_kind name ~want found =
  invalid_arg
    (Printf.sprintf "Obs.Metrics: %s already exists as a %s (wanted a %s)" name
       (kind_name found) want)

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (C c) -> c
  | Some m -> wrong_kind name ~want:"counter" m
  | None ->
    let c = { c_v = 0 } in
    Hashtbl.add t.tbl name (C c);
    c

let timer t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (T tm) -> tm
  | Some m -> wrong_kind name ~want:"timer" m
  | None ->
    let tm = { t_ns = 0; t_n = 0 } in
    Hashtbl.add t.tbl name (T tm);
    tm

let histogram t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (H h) -> h
  | Some m -> wrong_kind name ~want:"histogram" m
  | None ->
    let h =
      { h_count = 0; h_sum = 0; h_max = 0; h_buckets = Array.make n_buckets 0 }
    in
    Hashtbl.add t.tbl name (H h);
    h

module Counter = struct
  let incr c = c.c_v <- c.c_v + 1
  let add c n = c.c_v <- c.c_v + n
  let value c = c.c_v
end

module Timer = struct
  let add tm ns =
    tm.t_ns <- tm.t_ns + ns;
    tm.t_n <- tm.t_n + 1

  let ns tm = tm.t_ns
  let intervals tm = tm.t_n
end

(* the bit length of [v > 0]: a binary search in six fixed halvings of
   the 63-bit word, after which the remaining value is 1 *)
let bit_length v =
  let len = ref 1 and v = ref v in
  if !v lsr 32 <> 0 then begin
    len := !len + 32;
    v := !v lsr 32
  end;
  if !v lsr 16 <> 0 then begin
    len := !len + 16;
    v := !v lsr 16
  end;
  if !v lsr 8 <> 0 then begin
    len := !len + 8;
    v := !v lsr 8
  end;
  if !v lsr 4 <> 0 then begin
    len := !len + 4;
    v := !v lsr 4
  end;
  if !v lsr 2 <> 0 then begin
    len := !len + 2;
    v := !v lsr 2
  end;
  if !v lsr 1 <> 0 then len := !len + 1;
  !len

(* [v] in octave [o] ([2^o <= v < 2^(o+1)], [o >= 4]): the four bits
   below the leading one select the linear sub-bucket *)
let bucket_of v =
  if v < subs then max v 0
  else
    let o = bit_length v - 1 in
    ((o - 3) * subs) + ((v lsr (o - 4)) land (subs - 1))

(* inclusive upper bound of bucket [i]; [bucket_of (bucket_le i) = i] *)
let bucket_le i =
  if i < subs then i
  else
    let o = (i / subs) + 3 and sub = i mod subs in
    ((subs + sub + 1) lsl (o - 4)) - 1

module Histogram = struct
  let observe h v =
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum + v;
    if v > h.h_max then h.h_max <- v;
    let b = bucket_of v in
    h.h_buckets.(b) <- h.h_buckets.(b) + 1

  let count h = h.h_count
  let sum h = h.h_sum
  let max_value h = h.h_max
  let mean h = if h.h_count = 0 then 0.0 else float_of_int h.h_sum /. float_of_int h.h_count

  let quantile h q =
    if h.h_count = 0 then 0
    else begin
      let target = int_of_float (Float.ceil (q *. float_of_int h.h_count)) in
      let target = max 1 (min h.h_count target) in
      let rec find i acc =
        let acc = acc + h.h_buckets.(i) in
        if acc >= target || i = n_buckets - 1 then min (bucket_le i) h.h_max
        else find (i + 1) acc
      in
      find 0 0
    end
end

type view =
  | Counter of int
  | Timer of { ns : int; intervals : int }
  | Histogram of { count : int; sum : int; max_value : int; buckets : (int * int) list }

let view_of = function
  | C c -> Counter c.c_v
  | T tm -> Timer { ns = tm.t_ns; intervals = tm.t_n }
  | H h ->
    let buckets = ref [] in
    for i = n_buckets - 1 downto 0 do
      if h.h_buckets.(i) > 0 then buckets := (bucket_le i, h.h_buckets.(i)) :: !buckets
    done;
    Histogram { count = h.h_count; sum = h.h_sum; max_value = h.h_max; buckets = !buckets }

let view t name = Option.map view_of (Hashtbl.find_opt t.tbl name)

let to_list t =
  Hashtbl.fold (fun name m acc -> (name, view_of m) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* [bucket_of] inverts [bucket_le], so a serialized upper bound lands in
   the bucket it came from.  A power-of-two record's bound [2^i - 1] is
   the top edge of a log-linear bucket, so older traces and checkpoints
   absorb with every count, sum and max intact. *)
let absorb ~into name (v : view) =
  match v with
  | Counter n -> Counter.add (counter into name) n
  | Timer { ns; intervals } ->
    let d = timer into name in
    d.t_ns <- d.t_ns + ns;
    d.t_n <- d.t_n + intervals
  | Histogram { count; sum; max_value; buckets } ->
    let d = histogram into name in
    d.h_count <- d.h_count + count;
    d.h_sum <- d.h_sum + sum;
    if max_value > d.h_max then d.h_max <- max_value;
    List.iter
      (fun (le, n) ->
        let i = bucket_of le in
        d.h_buckets.(i) <- d.h_buckets.(i) + n)
      buckets

let merge ~into src =
  (* iterate in sorted order so creations in [into] are deterministic *)
  let entries =
    Hashtbl.fold (fun name m acc -> (name, m) :: acc) src.tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, m) ->
      match m with
      | C c -> Counter.add (counter into name) c.c_v
      | T tm ->
        let d = timer into name in
        d.t_ns <- d.t_ns + tm.t_ns;
        d.t_n <- d.t_n + tm.t_n
      | H h ->
        let d = histogram into name in
        d.h_count <- d.h_count + h.h_count;
        d.h_sum <- d.h_sum + h.h_sum;
        if h.h_max > d.h_max then d.h_max <- h.h_max;
        Array.iteri (fun i n -> d.h_buckets.(i) <- d.h_buckets.(i) + n) h.h_buckets)
    entries

let record name (v : view) =
  let open Json in
  let kind, fields =
    match v with
    | Counter n -> ("counter", [ ("value", Int n) ])
    | Timer { ns; intervals } -> ("timer", [ ("ns", Int ns); ("intervals", Int intervals) ])
    | Histogram { count; sum; max_value; buckets } ->
      let bucket (le, n) = Obj [ ("le", Int le); ("n", Int n) ] in
      ( "histogram",
        [
          ("count", Int count);
          ("sum", Int sum);
          ("max", Int max_value);
          ("buckets", Arr (List.map bucket buckets));
        ] )
  in
  Obj (("type", Str kind) :: ("name", Str name) :: fields)

let of_record j =
  let int j k = Json.to_int (Json.member k j) in
  let v =
    match Json.to_string (Json.member "type" j) with
    | "counter" -> Counter (int j "value")
    | "timer" -> Timer { ns = int j "ns"; intervals = int j "intervals" }
    | "histogram" ->
      let buckets = Json.to_list (Json.member "buckets" j) in
      let buckets = List.map (fun b -> (int b "le", int b "n")) buckets in
      Histogram { count = int j "count"; sum = int j "sum"; max_value = int j "max"; buckets }
    | ty -> raise (Json.Bad (Printf.sprintf "not a metric record: type %S" ty))
  in
  (Json.to_string (Json.member "name" j), v)
