type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string

exception Fail of int * string

(* --- parser: recursive descent over a string, tracking a byte cursor --- *)

type state = { src : string; mutable pos : int }

let fail st msg = raise (Fail (st.pos, msg))
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let continue = ref true in
  while !continue do
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') -> advance st
    | _ -> continue := false
  done

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | Some d -> fail st (Printf.sprintf "expected '%c', found '%c'" c d)
  | None -> fail st (Printf.sprintf "expected '%c', found end of input" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then (
    st.pos <- st.pos + n;
    value)
  else fail st (Printf.sprintf "invalid literal (expected %s)" word)

let hex_digit st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail st "invalid \\u escape"

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let hex4 () =
                  if st.pos + 4 > String.length st.src then
                    fail st "truncated \\u escape";
                  let code =
                    List.fold_left
                      (fun acc i ->
                        (acc * 16) + hex_digit st st.src.[st.pos + i])
                      0 [ 0; 1; 2; 3 ]
                  in
                  st.pos <- st.pos + 4;
                  code
                in
                let code = hex4 () in
                let code =
                  (* A high surrogate followed by \uDC00-\uDFFF encodes
                     one supplementary-plane code point. *)
                  if
                    code >= 0xD800 && code <= 0xDBFF
                    && st.pos + 2 <= String.length st.src
                    && st.src.[st.pos] = '\\'
                    && st.src.[st.pos + 1] = 'u'
                  then (
                    let saved = st.pos in
                    st.pos <- st.pos + 2;
                    let lo = hex4 () in
                    if lo >= 0xDC00 && lo <= 0xDFFF then
                      0x10000 + ((code - 0xD800) lsl 10) + (lo - 0xDC00)
                    else (
                      (* Not a low surrogate: re-parse it as its own
                         escape on the next loop iteration. *)
                      st.pos <- saved;
                      code))
                  else code
                in
                if Uchar.is_valid code then
                  Buffer.add_utf_8_uchar buf (Uchar.of_int code)
                else
                  (* Lone surrogate: lexically valid JSON but not a
                     scalar value; substitute U+FFFD. *)
                  Buffer.add_utf_8_uchar buf Uchar.rep
            | c -> fail st (Printf.sprintf "invalid escape '\\%c'" c));
            loop ())
    | Some c when Char.code c < 0x20 -> fail st "control character in string"
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let continue = ref true in
  while !continue do
    match peek st with
    | Some ('0' .. '9' | '-' | '+') -> advance st
    | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance st
    | _ -> continue := false
  done;
  let text = String.sub st.src start (st.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail st (Printf.sprintf "invalid number %S" text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        (* Integer wider than 63 bits: keep the value as a float. *)
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail st (Printf.sprintf "invalid number %S" text))

(* The parser recurses once per nesting level, so an adversarial
   "[[[[..." frame would otherwise convert O(frame bytes) into an OCaml
   stack overflow — an exception no reasonable handler catches, killing
   the connection thread.  The cap turns that into an ordinary parse
   error long before the stack is at risk. *)
let default_max_depth = 512
let depth_error_prefix = "nesting deeper than "

let is_depth_error msg =
  let n = String.length depth_error_prefix in
  String.length msg >= n && String.sub msg 0 n = depth_error_prefix

let rec parse_value st ~depth =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
      if depth <= 0 then
        fail st (depth_error_prefix ^ "the limit allows");
      advance st;
      skip_ws st;
      if peek st = Some '}' then (
        advance st;
        Obj [])
      else
        let rec members acc =
          skip_ws st;
          let key = parse_string st in
          skip_ws st;
          expect st ':';
          let value = parse_value st ~depth:(depth - 1) in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              members ((key, value) :: acc)
          | Some '}' ->
              advance st;
              Obj (List.rev ((key, value) :: acc))
          | _ -> fail st "expected ',' or '}'"
        in
        members []
  | Some '[' ->
      if depth <= 0 then
        fail st (depth_error_prefix ^ "the limit allows");
      advance st;
      skip_ws st;
      if peek st = Some ']' then (
        advance st;
        List [])
      else
        let rec elements acc =
          let value = parse_value st ~depth:(depth - 1) in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              elements (value :: acc)
          | Some ']' ->
              advance st;
              List (List.rev (value :: acc))
          | _ -> fail st "expected ',' or ']'"
        in
        elements []
  | Some '"' -> String (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character '%c'" c)

let parse ?(max_depth = default_max_depth) s =
  let st = { src = s; pos = 0 } in
  match parse_value st ~depth:max_depth with
  | v ->
      skip_ws st;
      if st.pos < String.length s then
        Error (st.pos, "trailing content after JSON value")
      else Ok v
  | exception Fail (pos, msg) -> Error (pos, msg)

(* --- printer --- *)

(* A string literal, quotes included.  Bytes >= 0x80 pass through, so
   UTF-8 text stays UTF-8. *)
let add_quoted buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec print buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then
        Buffer.add_string buf (Printf.sprintf "%.17g" f)
      else Buffer.add_string buf "null"
  | String s -> add_quoted buf s
  | Raw s -> Buffer.add_string buf s
  | List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          print buf v)
        vs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          add_quoted buf k;
          Buffer.add_string buf ": ";
          print buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  print buf v;
  Buffer.contents buf

let to_file path v =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (to_string v);
      output_char oc '\n')

(* --- accessors --- *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List vs -> Some vs | _ -> None

let rec equal a b =
  match (a, b) with
  | Int a, Float b | Float b, Int a -> float_of_int a = b
  | List a, List b ->
      List.length a = List.length b && List.for_all2 equal a b
  | Obj a, Obj b ->
      List.length a = List.length b
      && List.for_all2
           (fun (ka, va) (kb, vb) -> ka = kb && equal va vb)
           a b
  | Raw a, Raw b -> a = b
  | a, b -> a = b
