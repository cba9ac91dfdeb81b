type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* ---------- parsing ---------- *)

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = bad "%s at byte %d" what !pos in
  (* NUL stands for end of input: no token may contain a raw NUL *)
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let eat c =
    let hit = peek () = c in
    if hit then incr pos;
    hit
  in
  let expect c = if not (eat c) then fail (Printf.sprintf "expected %C" c) in
  let rec ws () = if eat ' ' || eat '\t' || eat '\n' || eat '\r' then ws () in
  let digits () =
    let start = !pos in
    while match peek () with '0' .. '9' -> true | _ -> false do incr pos done;
    if !pos = start then fail "expected a digit"
  in
  let hex4 () =
    let h = if !pos + 4 <= n then String.sub s !pos 4 else "" in
    let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if h = "" || not (String.for_all hex h) then fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ h)
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' ->
        incr pos;
        Buffer.contents b
      | '\\' ->
        incr pos;
        let c = peek () in
        incr pos;
        (match c with
        | '"' | '\\' | '/' -> Buffer.add_char b c
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          let u = hex4 () in
          let u =
            (* a high surrogate must be followed by an escaped low one *)
            if u land 0xFC00 = 0xD800 && eat '\\' && eat 'u' then begin
              let lo = hex4 () in
              if lo land 0xFC00 <> 0xDC00 then fail "unpaired surrogate";
              0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
            end
            else if u land 0xF800 = 0xD800 then fail "unpaired surrogate"
            else u
          in
          Buffer.add_utf_8_uchar b (Uchar.of_int u)
        | _ -> fail "bad escape");
        go ()
      | c when Char.code c < 0x20 -> fail "unterminated string or raw control character"
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ()
  in
  (* -? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)? *)
  let num () =
    let start = !pos in
    ignore (eat '-');
    if not (eat '0') then digits ();
    let frac = eat '.' in
    if frac then digits ();
    let exp = eat 'e' || eat 'E' in
    if exp then begin
      ignore (eat '+' || eat '-');
      digits ()
    end;
    let lexeme = String.sub s start (!pos - start) in
    match if frac || exp then None else int_of_string_opt lexeme with
    | Some i -> Int i
    | None -> Num (float_of_string lexeme)
  in
  let lit word v =
    let k = String.length word in
    if !pos + k <= n && String.sub s !pos k = word then begin
      pos := !pos + k;
      v
    end
    else fail "bad literal"
  in
  (* comma-separated [item]s up to [close]; the opening bracket is eaten *)
  let items close item =
    ws ();
    if eat close then []
    else
      let rec go acc =
        let x = item () in
        ws ();
        if eat ',' then go (x :: acc)
        else begin
          expect close;
          List.rev (x :: acc)
        end
      in
      go []
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr pos;
      Obj
        (items '}' (fun () ->
             ws ();
             let k = str () in
             ws ();
             expect ':';
             (k, value ())))
    | '[' ->
      incr pos;
      Arr (items ']' value)
    | '"' -> Str (str ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | '-' | '0' .. '9' -> num ()
    | _ -> fail "expected a value"
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member k = function
  | Obj kvs -> (
    match List.assoc_opt k kvs with Some v -> v | None -> bad "missing field %S" k)
  | _ -> bad "expected an object for field %S" k

let to_int = function Int i -> i | _ -> bad "expected an integer"

let to_float = function
  | Int i -> float_of_int i
  | Num f -> f
  | _ -> bad "expected a number"

let to_string = function Str s -> s | _ -> bad "expected a string"
let to_bool = function Bool b -> b | _ -> bad "expected a boolean"
let to_list = function Arr l -> l | _ -> bad "expected an array"

(* ---------- printing ---------- *)

let add_escaped b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let number f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.15g" f in
    let s = if Float.equal (float_of_string s) f then s else Printf.sprintf "%.17g" f in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let add_list b sep add l =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b sep;
      add x)
    l

(* [sep] between elements/members, [colon] between a key and its value *)
let rec add_inline ~sep ~colon b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Num f -> Buffer.add_string b (number f)
  | Str s -> add_escaped b s
  | Arr l ->
    Buffer.add_char b '[';
    add_list b sep (add_inline ~sep ~colon b) l;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    add_list b sep
      (fun (k, v) ->
        add_escaped b k;
        Buffer.add_string b colon;
        add_inline ~sep ~colon b v)
      kvs;
    Buffer.add_char b '}'

let to_line v =
  let b = Buffer.create 128 in
  add_inline ~sep:"," ~colon:":" b v;
  Buffer.contents b

let to_ndjson records = String.concat "" (List.map (fun j -> to_line j ^ "\n") records)

let read_ndjson path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (if String.trim l = "" then acc else parse l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let to_doc v =
  let b = Buffer.create 4096 in
  let inline = add_inline ~sep:", " ~colon:": " b in
  (match v with
  | Obj kvs ->
    Buffer.add_string b "{\n";
    add_list b ",\n"
      (fun (k, v) ->
        Buffer.add_string b "  ";
        add_escaped b k;
        Buffer.add_string b ": ";
        match v with
        | Arr (_ :: _ as l) ->
          Buffer.add_string b "[\n";
          add_list b ",\n"
            (fun e ->
              Buffer.add_string b "    ";
              inline e)
            l;
          Buffer.add_string b "\n  ]"
        | v -> inline v)
      kvs;
    Buffer.add_string b "\n}"
  | v -> inline v);
  Buffer.add_char b '\n';
  Buffer.contents b

let write_file ~path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc contents;
  (* [close_out] hands the bytes to the OS (it does not fsync), so the
     rename below publishes a complete file to any later reader unless
     the machine itself goes down *)
  close_out oc;
  Sys.rename tmp path
