(* Reference answers that share no code with the engine under test's
   answer path: certain answers by [Relational.Ucq.answers] over the
   instance of an indexed chase (null-free tuples over the input domain),
   and null-blind skeletons of chased instances, as in E18. *)

open Relational
open Workloads

type store = { instance : Instance.t; universe : Term.ConstSet.t }

(* the program's database, chased with the sequential indexed engine *)
let chase ?(max_level = 8) (p : Syntax.Parser.program) db =
  let r = Tgds.Chase.run ~engine:`Indexed ~max_level p.Syntax.Parser.tgds db in
  if not (Tgds.Chase.saturated r) then failwith "oracle: chase did not saturate";
  Tgds.Chase.instance r

let store p =
  let db = Syntax.Parser.database p in
  { instance = chase p db; universe = Instance.dom db }

let split_verb text =
  match String.index_opt text ' ' with
  | Some i -> (String.sub text 0 i, String.sub text (i + 1) (String.length text - i - 1))
  | None -> invalid_arg text

(* the reply body a correct server sends for [text] *)
let body st text =
  let verb, rest = split_verb text in
  let q =
    match (Syntax.Parser.parse rest).Syntax.Parser.queries with
    | [ (_, q) ] -> q
    | _ -> invalid_arg text
  in
  let named = function
    | Term.Named _ as c -> Term.ConstSet.mem c st.universe
    | Term.Null _ -> false
  in
  let rows =
    List.sort_uniq Stdlib.compare
      (List.filter (List.for_all named) (Ucq.answers st.instance q))
  in
  let n = List.length rows in
  if verb = "count" then Printf.sprintf "ok count=%d" n
  else begin
    let b = Buffer.create 256 in
    Printf.bprintf b "ok %d" n;
    List.iter
      (fun row ->
        Buffer.add_string b " (";
        List.iteri
          (fun i c ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_string b (Fmt.str "%a" Term.pp_const c))
          row;
        Buffer.add_char b ')')
      rows;
    Buffer.contents b
  end

(* The requests of a server workload with the expected reply bodies: the
   scan texts with oracle bodies ([pool = 0]), or a stream of distinct
   point requests, [pool] of them up front, whose model bodies are
   checked against the oracle on a seeded sample. *)
type requests = Scan of request array | Points of pool

(* the requests and the number of model mismatches *)
let requests s p rng ~pool =
  let st = store p in
  if pool = 0 then
    (Scan (Array.map (fun text -> { text; expected = body st text }) scan_texts), 0)
  else begin
    let pl = point_pool { s with pool } rng in
    let bad = ref 0 in
    for _ = 1 to 64 do
      let r = pool_get pl (Random.State.int rng pool) in
      let want = body st r.text in
      if want <> r.expected then begin
        incr bad;
        Printf.eprintf "model mismatch: %s: model %S, oracle %S\n%!" r.text
          r.expected want
      end
    done;
    (Points pl, !bad)
  end

(* ---- skeletons ----------------------------------------------------------- *)

(* a listed fact with every labelled null ("_:n<digits>") collapsed *)
let collapse_nulls line =
  let b = Buffer.create (String.length line) in
  let n = String.length line in
  let i = ref 0 in
  while !i < n do
    if !i + 3 < n && line.[!i] = '_' && line.[!i + 1] = ':' && line.[!i + 2] = 'n'
    then begin
      Buffer.add_char b '_';
      i := !i + 3;
      while !i < n && line.[!i] >= '0' && line.[!i] <= '9' do
        incr i
      done
    end
    else begin
      Buffer.add_char b line.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* the sorted null-blind listing of an instance, one "fact." per line *)
let skeleton inst =
  Instance.fold (fun f acc -> collapse_nulls (Fmt.str "%a." Fact.pp f) :: acc) inst []
  |> List.sort compare
