type severity = Error | Warning

type loc =
  | Op of int
  | Fu of int
  | Reg of int
  | Step of int
  | Node of int
  | Net of string
  | Line of int
  | Design

type t = {
  code : string;
  severity : severity;
  loc : loc;
  message : string;
}

let make severity code loc fmt =
  Printf.ksprintf (fun message -> { code; severity; loc; message }) fmt

let error code loc fmt = make Error code loc fmt
let warning code loc fmt = make Warning code loc fmt
let is_error d = d.severity = Error
let errors ds = List.filter is_error ds
let codes ds = List.sort_uniq Stdlib.compare (List.map (fun d -> d.code) ds)
let has_code code ds = List.exists (fun d -> d.code = code) ds

let loc_rank = function
  | Design -> (0, 0, "")
  | Op i -> (1, i, "")
  | Fu i -> (2, i, "")
  | Reg i -> (3, i, "")
  | Step i -> (4, i, "")
  | Node i -> (5, i, "")
  | Net s -> (6, 0, s)
  | Line i -> (7, i, "")

let compare a b =
  let sev = function Error -> 0 | Warning -> 1 in
  let c = Stdlib.compare (sev a.severity) (sev b.severity) in
  if c <> 0 then c
  else
    let c = Stdlib.compare a.code b.code in
    if c <> 0 then c else Stdlib.compare (loc_rank a.loc) (loc_rank b.loc)

let pp_loc fmt = function
  | Op i -> Format.fprintf fmt "op %d" i
  | Fu i -> Format.fprintf fmt "fu %d" i
  | Reg i -> Format.fprintf fmt "reg %d" i
  | Step i -> Format.fprintf fmt "step %d" i
  | Node i -> Format.fprintf fmt "node %d" i
  | Net s -> Format.fprintf fmt "net %s" s
  | Line i -> Format.fprintf fmt "line %d" i
  | Design -> Format.fprintf fmt "design"

let pp fmt d =
  Format.fprintf fmt "%s[%s] %a: %s"
    (match d.severity with Error -> "error" | Warning -> "warning")
    d.code pp_loc d.loc d.message

let to_string d = Format.asprintf "%a" pp d

module Json = Hlp_util.Json

let loc_to_json : loc -> Json.t = function
  | Op i -> Obj [ ("kind", String "op"); ("index", Int i) ]
  | Fu i -> Obj [ ("kind", String "fu"); ("index", Int i) ]
  | Reg i -> Obj [ ("kind", String "reg"); ("index", Int i) ]
  | Step i -> Obj [ ("kind", String "step"); ("index", Int i) ]
  | Node i -> Obj [ ("kind", String "node"); ("index", Int i) ]
  | Net s -> Obj [ ("kind", String "net"); ("name", String s) ]
  | Line i -> Obj [ ("kind", String "line"); ("index", Int i) ]
  | Design -> Obj [ ("kind", String "design") ]

let to_json d : Json.t =
  Obj
    [
      ("code", String d.code);
      ( "severity",
        String (match d.severity with Error -> "error" | Warning -> "warning")
      );
      ("loc", loc_to_json d.loc);
      ("message", String d.message);
    ]

let loc_of_json v =
  let index () = Option.bind (Json.member "index" v) Json.to_int in
  match Option.bind (Json.member "kind" v) Json.to_string_opt with
  | Some "op" -> Option.map (fun i -> Op i) (index ())
  | Some "fu" -> Option.map (fun i -> Fu i) (index ())
  | Some "reg" -> Option.map (fun i -> Reg i) (index ())
  | Some "step" -> Option.map (fun i -> Step i) (index ())
  | Some "node" -> Option.map (fun i -> Node i) (index ())
  | Some "line" -> Option.map (fun i -> Line i) (index ())
  | Some "net" ->
      Option.map
        (fun n -> Net n)
        (Option.bind (Json.member "name" v) Json.to_string_opt)
  | Some "design" -> Some Design
  | _ -> None

let of_json v =
  let str name = Option.bind (Json.member name v) Json.to_string_opt in
  match (str "code", str "severity", str "message") with
  | Some code, Some sev, Some message ->
      let severity = if sev = "warning" then Warning else Error in
      let loc =
        Option.value ~default:Design
          (Option.bind (Json.member "loc" v) loc_of_json)
      in
      Some { code; severity; loc; message }
  | _ -> None
