open Relational.Term

type t = {
  mutable syms : const array;  (* id -> symbol *)
  mutable n : int;
  named : (string, int) Hashtbl.t;
  mutable nulls : int array;  (* null payload -> id + 1, 0 = absent *)
  odd : (const, int) Hashtbl.t;  (* nulls with out-of-range payloads *)
  mutable preds : string array;
  mutable npreds : int;
  pred_ids : (string, int) Hashtbl.t;
}

let dummy = Named ""

let create () =
  {
    syms = Array.make 16 dummy;
    n = 0;
    named = Hashtbl.create 64;
    nulls = Array.make 16 0;
    odd = Hashtbl.create 4;
    preds = Array.make 8 "";
    npreds = 0;
    pred_ids = Hashtbl.create 16;
  }

let size t = t.n

let append t c =
  if t.n = Array.length t.syms then begin
    let a = Array.make (2 * t.n) dummy in
    Array.blit t.syms 0 a 0 t.n;
    t.syms <- a
  end;
  t.syms.(t.n) <- c;
  t.n <- t.n + 1;
  t.n - 1

let null_slot t i =
  if i >= Array.length t.nulls then begin
    let len = ref (2 * Array.length t.nulls) in
    while i >= !len do
      len := 2 * !len
    done;
    let a = Array.make !len 0 in
    Array.blit t.nulls 0 a 0 (Array.length t.nulls);
    t.nulls <- a
  end

let intern t c =
  match c with
  | Named s -> (
      match Hashtbl.find_opt t.named s with
      | Some id -> id
      | None ->
          let id = append t c in
          Hashtbl.add t.named s id;
          id)
  | Null i when i >= 0 ->
      null_slot t i;
      let v = t.nulls.(i) in
      if v <> 0 then v - 1
      else begin
        let id = append t c in
        t.nulls.(i) <- id + 1;
        id
      end
  | Null _ -> (
      match Hashtbl.find_opt t.odd c with
      | Some id -> id
      | None ->
          let id = append t c in
          Hashtbl.add t.odd c id;
          id)

let find t c =
  match c with
  | Named s -> Hashtbl.find_opt t.named s
  | Null i when i >= 0 ->
      if i < Array.length t.nulls && t.nulls.(i) <> 0 then Some (t.nulls.(i) - 1) else None
  | Null _ -> Hashtbl.find_opt t.odd c

let find_int t c =
  match c with
  | Named s -> ( try Hashtbl.find t.named s with Not_found -> -1)
  | Null i when i >= 0 ->
      if i < Array.length t.nulls then t.nulls.(i) - 1 else -1
  | Null _ -> ( try Hashtbl.find t.odd c with Not_found -> -1)

let extern t id =
  if id < 0 || id >= t.n then invalid_arg "Symtab.extern";
  t.syms.(id)

let intern_pred t p =
  match Hashtbl.find_opt t.pred_ids p with
  | Some id -> id
  | None ->
      if t.npreds = Array.length t.preds then begin
        let a = Array.make (2 * t.npreds) "" in
        Array.blit t.preds 0 a 0 t.npreds;
        t.preds <- a
      end;
      t.preds.(t.npreds) <- p;
      t.npreds <- t.npreds + 1;
      Hashtbl.add t.pred_ids p (t.npreds - 1);
      t.npreds - 1

let find_pred t p = Hashtbl.find_opt t.pred_ids p
let find_pred_int t p = try Hashtbl.find t.pred_ids p with Not_found -> -1

let extern_pred t id =
  if id < 0 || id >= t.npreds then invalid_arg "Symtab.extern_pred";
  t.preds.(id)

let pred_count t = t.npreds

