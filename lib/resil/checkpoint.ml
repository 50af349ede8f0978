(** Checkpoint (de)serialisation; see the interface for the schema. *)

open Relational
module J = Obs.Json

type t = Tgds.Chase.snapshot

let schema = "guarded-chase-checkpoint"
let version = 1

let engine_to_string = function `Indexed -> "indexed" | `Naive -> "naive"

(* "parallel" names the retired multicore engine, whose output was
   byte-identical to the indexed one: checkpoints it wrote resume as
   indexed. *)
let engine_of_string = function
  | "indexed" | "parallel" -> Ok `Indexed
  | "naive" -> Ok `Naive
  | s -> Error (Printf.sprintf "checkpoint: unknown engine %S" s)

let policy_to_string = function
  | Tgds.Chase.Oblivious -> "oblivious"
  | Tgds.Chase.Restricted -> "restricted"

let policy_of_string = function
  | "oblivious" -> Ok Tgds.Chase.Oblivious
  | "restricted" -> Ok Tgds.Chase.Restricted
  | s -> Error (Printf.sprintf "checkpoint: unknown policy %S" s)

let const_to_json = function
  | Term.Named s -> J.String s
  | Term.Null i -> J.Obj [ ("n", J.Int i) ]

let const_of_json = function
  | J.String s -> Ok (Term.Named s)
  | J.Obj [ ("n", J.Int i) ] -> Ok (Term.Null i)
  | j -> Error (Printf.sprintf "checkpoint: bad constant %s" (J.to_string j))

let fact_to_json (f, l) =
  J.Obj
    [
      ("p", J.String (Fact.pred f));
      ("l", J.Int l);
      ("a", J.List (List.map const_to_json (Fact.args f)));
    ]

let fact_of_json j =
  match (J.member "p" j, J.member "l" j, J.member "a" j) with
  | Some (J.String p), Some (J.Int l), Some (J.List args) ->
      let rec decode acc = function
        | [] -> Ok (List.rev acc)
        | a :: rest -> (
            match const_of_json a with
            | Ok c -> decode (c :: acc) rest
            | Error _ as e -> e)
      in
      Result.map (fun args -> (Fact.make p args, l)) (decode [] args)
  | _ -> Error (Printf.sprintf "checkpoint: bad fact %s" (J.to_string j))

let to_json (s : t) =
  let facts =
    List.sort
      (fun (f1, l1) (f2, l2) ->
        match compare (l1 : int) l2 with 0 -> Fact.compare f1 f2 | c -> c)
      s.Tgds.Chase.snap_facts
  in
  let counters =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      s.Tgds.Chase.snap_counters
  in
  J.Obj
    [
      ("schema", J.String schema);
      ("version", J.Int version);
      ("engine", J.String (engine_to_string s.Tgds.Chase.snap_engine));
      ("policy", J.String (policy_to_string s.Tgds.Chase.snap_policy));
      ("level", J.Int s.Tgds.Chase.snap_level);
      ("saturated", J.Bool s.Tgds.Chase.snap_saturated);
      ("null_count", J.Int s.Tgds.Chase.snap_null_count);
      ("triggers_fired", J.Int s.Tgds.Chase.snap_triggers_fired);
      ("triggers_dismissed", J.Int s.Tgds.Chase.snap_triggers_dismissed);
      ("counters", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) counters));
      ("facts", J.List (List.map fact_to_json facts));
    ]

let ( let* ) = Result.bind

let field name extract j =
  match Option.map extract (J.member name j) with
  | Some (Some v) -> Ok v
  | _ -> Error (Printf.sprintf "checkpoint: missing or bad field %S" name)

let int_f = function J.Int i -> Some i | _ -> None
let str_f = function J.String s -> Some s | _ -> None
let bool_f = function J.Bool b -> Some b | _ -> None

let of_json j =
  let* sch = field "schema" str_f j in
  let* () =
    if sch = schema then Ok ()
    else Error (Printf.sprintf "checkpoint: unknown schema %S" sch)
  in
  let* ver = field "version" int_f j in
  let* () =
    if ver = version then Ok ()
    else Error (Printf.sprintf "checkpoint: unsupported version %d" ver)
  in
  let* engine = Result.bind (field "engine" str_f j) engine_of_string in
  let* policy = Result.bind (field "policy" str_f j) policy_of_string in
  let* level = field "level" int_f j in
  let* saturated = field "saturated" bool_f j in
  let* null_count = field "null_count" int_f j in
  let* fired = field "triggers_fired" int_f j in
  let* dismissed = field "triggers_dismissed" int_f j in
  let* counters =
    match J.member "counters" j with
    | Some (J.Obj kvs) ->
        let rec decode acc = function
          | [] -> Ok (List.rev acc)
          | (k, J.Int v) :: rest -> decode ((k, v) :: acc) rest
          | (k, _) :: _ ->
              Error (Printf.sprintf "checkpoint: bad counter %S" k)
        in
        decode [] kvs
    | _ -> Error "checkpoint: missing or bad field \"counters\""
  in
  let* facts =
    match J.member "facts" j with
    | Some (J.List fs) ->
        let rec decode acc = function
          | [] -> Ok (List.rev acc)
          | f :: rest -> (
              match fact_of_json f with
              | Ok fl -> decode (fl :: acc) rest
              | Error _ as e -> e)
        in
        decode [] fs
    | _ -> Error "checkpoint: missing or bad field \"facts\""
  in
  Ok
    {
      Tgds.Chase.snap_engine = engine;
      snap_policy = policy;
      snap_level = level;
      snap_saturated = saturated;
      snap_null_count = null_count;
      snap_triggers_fired = fired;
      snap_triggers_dismissed = dismissed;
      snap_facts = facts;
      snap_counters = counters;
    }

let save path (s : t) =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> J.to_channel oc (to_json s));
  Sys.rename tmp path

type error = Io of string | Corrupt of string

let error_message = function Io msg -> msg | Corrupt msg -> msg

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error (Io (Printf.sprintf "checkpoint: %s" msg))
  | contents -> (
      match Result.bind (J.parse contents) of_json with
      | Ok s -> Ok s
      | Error msg ->
          let msg =
            if String.length msg >= 11 && String.sub msg 0 11 = "checkpoint:"
            then msg
            else Printf.sprintf "checkpoint: %s" msg
          in
          Error (Corrupt (Printf.sprintf "%s (%s)" msg path)))
