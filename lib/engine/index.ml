(** Indexed fact store, columnar edition.

    Symbols are interned to dense ints ({!Symtab}) and each predicate's
    tuples live in contiguous int columns ({!Vec}), beside a column of
    the rows' s-levels; the per-predicate insertion order is a flat int
    vector of packed row handles, a posting list is one inline handle or
    such a vector, and membership is one hash table keyed by the
    interned fact key. See the interface for
    the contract — the observable behaviour (iteration order, counters,
    probe accounting) is bit-compatible with the previous hash-of-lists
    representation:

    - posting lists and relations iterate {e most recently added
      first}, which is the reverse of append order of the backing
      vectors;
    - [remove] prunes in place preserving that order, and freed row
      slots go on a per-relation free list that the next insert reuses,
      so insert/delete churn cannot grow the store's capacity;
    - [index.probes] counts one probe per candidate-list retrieval,
      exactly where [tuples_of]/[tuples_at] used to count it. *)

open Relational
open Relational.Term

(* A live row is handled as [arity << row_bits | row] so the order and
   posting vectors can span the (rare) predicates used at several
   arities while staying flat int data. *)
let row_bits = 40
let row_mask = (1 lsl row_bits) - 1
let pack ~arity row = (arity lsl row_bits) lor row
let arity_of_packed p = p lsr row_bits
let row_of_packed p = p land row_mask

(* Interned keys ([| pid; cid1; …; cidn |] facts, [| rule; cid… |]
   triggers) hashed by a mix of every cell. The stdlib table indexes its
   buckets by the hash's low bits, so the final avalanche matters: any
   bit of any cell must be able to reach them. *)
module Key = struct
  type t = int array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i = n || (Array.unsafe_get a i = Array.unsafe_get b i && go (i + 1)) in
    go 0

  let hash (k : t) =
    let h = ref (Array.length k) in
    for i = 0 to Array.length k - 1 do
      h := (!h lxor Array.unsafe_get k i) * 0x100000001b3
    done;
    let h = !h in
    let h = (h lxor (h lsr 31)) * 0x3fb5d329728ea185 in
    let h = (h lxor (h lsr 27)) * 0x21dadef4bc2dd44d in
    (h lxor (h lsr 33)) land max_int
end

module Key_table = Hashtbl.Make (Key)

(* A posting list: the packed rows filed under one (position, cid), in
   append order. Most lists hold one row — a null, or a constant seen
   once at that position: 93% of them in the saturated store of
   perfbench's point-distinct program, 92% in serve-churn's — so a
   singleton is kept inline and only a second row allocates a vector
   (a [Vec] is a Bigarray: a custom block plus a malloc'd buffer). *)
type posting = One of int | Many of Vec.t

let posting_length = function One _ -> 1 | Many v -> Vec.length v

(* the [k]-th row in append order *)
let posting_get p k = match p with One r -> r | Many v -> Vec.get v k

type rel = {
  r_arity : int;
  r_cols : Vec.t array;  (* one column per argument position *)
  r_levels : Vec.t;  (* s-level per row slot *)
  mutable r_rows : int;  (* row slots allocated, including freed ones *)
  r_free : Vec.t;  (* freed row slots, reused by the next insert *)
}

type entry = {
  mutable e_rels : rel list;  (* by arity; almost always a singleton *)
  e_order : Vec.t;  (* live rows in append order *)
  mutable e_at : (int, posting) Hashtbl.t array;  (* position -> cid -> posting *)
}

(* The predicate table is shared through a one-field record so readers
   keep seeing growth of the pid-indexed array. *)
type tables = { mutable entries : entry option array }

type t = {
  symtab : Symtab.t;
  tabs : tables;
  members : int Key_table.t;  (* fact key -> packed row *)
  metrics : Obs.Metrics.t;
  (* counter handles, resolved once so the hot paths never do a name
     lookup *)
  c_probes : Obs.Metrics.counter;
  c_inserts : Obs.Metrics.counter;
  c_duplicates : Obs.Metrics.counter;
  c_removes : Obs.Metrics.counter;
}

let create () =
  let metrics = Obs.Metrics.create () in
  {
    symtab = Symtab.create ();
    tabs = { entries = Array.make 16 None };
    members = Key_table.create 1024;
    metrics;
    c_probes = Obs.Metrics.counter metrics "index.probes";
    c_inserts = Obs.Metrics.counter metrics "index.inserts";
    c_duplicates = Obs.Metrics.counter metrics "index.duplicates";
    c_removes = Obs.Metrics.counter metrics "index.removes";
  }

(* A read-only view over the same store with a private metrics registry:
   worker domains probe through readers so the shared registry is never
   written concurrently. Safe as long as nobody inserts while readers
   are in use (the server reads only a frozen snapshot). *)
let reader idx =
  let metrics = Obs.Metrics.create () in
  {
    idx with
    metrics;
    c_probes = Obs.Metrics.counter metrics "index.probes";
    c_inserts = Obs.Metrics.counter metrics "index.inserts";
    c_duplicates = Obs.Metrics.counter metrics "index.duplicates";
    c_removes = Obs.Metrics.counter metrics "index.removes";
  }

let symtab idx = idx.symtab
let probes idx = Obs.Metrics.value idx.c_probes
let metrics idx = idx.metrics

(* Interned fact keys: [| pid; cid1; …; cidn |]. The [_find] variant
   never assigns ids — a fact with an unknown symbol cannot be stored. *)

let key_intern idx f =
  let st = idx.symtab in
  let args = Fact.args f in
  let key = Array.make (List.length args + 1) 0 in
  key.(0) <- Symtab.intern_pred st (Fact.pred f);
  List.iteri (fun i c -> key.(i + 1) <- Symtab.intern st c) args;
  key

exception Unknown

let key_find idx f =
  let st = idx.symtab in
  match Symtab.find_pred st (Fact.pred f) with
  | None -> None
  | Some pid -> (
      let args = Fact.args f in
      let key = Array.make (List.length args + 1) 0 in
      key.(0) <- pid;
      try
        List.iteri
          (fun i c ->
            match Symtab.find st c with
            | Some cid -> key.(i + 1) <- cid
            | None -> raise Unknown)
          args;
        Some key
      with Unknown -> None)

let mem_key idx key = Key_table.mem idx.members key
let mem f idx = match key_find idx f with None -> false | Some key -> mem_key idx key

let size idx = Key_table.length idx.members

let entry idx pid =
  let es = idx.tabs.entries in
  if pid < Array.length es then es.(pid) else None

let entry_of idx pid =
  let tabs = idx.tabs in
  if pid >= Array.length tabs.entries then begin
    let len = ref (2 * Array.length tabs.entries) in
    while pid >= !len do
      len := 2 * !len
    done;
    let a = Array.make !len None in
    Array.blit tabs.entries 0 a 0 (Array.length tabs.entries);
    tabs.entries <- a
  end;
  match tabs.entries.(pid) with
  | Some e -> e
  | None ->
      let e = { e_rels = []; e_order = Vec.create (); e_at = [||] } in
      tabs.entries.(pid) <- Some e;
      e

(* [go] closes over nothing, so a lookup allocates only its [Some]
   ([List.find_opt] would add a closure over [arity] on every insert). *)
let rel_find e arity =
  let rec go arity = function
    | [] -> None
    | r :: rest -> if r.r_arity = arity then Some r else go arity rest
  in
  go arity e.e_rels

let rel_of e arity =
  match rel_find e arity with
  | Some r -> r
  | None ->
      let r =
        {
          r_arity = arity;
          r_cols = Array.init arity (fun _ -> Vec.create ());
          r_levels = Vec.create ();
          r_rows = 0;
          r_free = Vec.create ~capacity:1 ();
        }
      in
      e.e_rels <- r :: e.e_rels;
      if Array.length e.e_at < arity then
        e.e_at <-
          Array.init arity (fun i ->
              if i < Array.length e.e_at then e.e_at.(i) else Hashtbl.create 16);
      r

let posting_push tbl cid packed =
  match Hashtbl.find tbl cid with
  | Many v -> Vec.push v packed
  | One r ->
      let v = Vec.create ~capacity:4 () in
      Vec.push v r;
      Vec.push v packed;
      Hashtbl.replace tbl cid (Many v)
  | exception Not_found -> Hashtbl.add tbl cid (One packed)

(* File [key] unless it is stored: a row slot (recycled when one is
   free), its level, the relation order, one posting entry per position
   and the membership entry, which keeps [key] itself. *)
let file_key idx key ~level =
  if Key_table.mem idx.members key then begin
    Obs.Metrics.incr idx.c_duplicates;
    false
  end
  else begin
    Obs.Metrics.incr idx.c_inserts;
    let pid = key.(0) and arity = Array.length key - 1 in
    let e = entry_of idx pid in
    let r = rel_of e arity in
    let row =
      if Vec.length r.r_free > 0 then begin
        let row = Vec.pop r.r_free in
        for i = 0 to arity - 1 do
          Vec.set r.r_cols.(i) row key.(i + 1)
        done;
        Vec.set r.r_levels row level;
        row
      end
      else begin
        let row = r.r_rows in
        r.r_rows <- row + 1;
        for i = 0 to arity - 1 do
          Vec.push r.r_cols.(i) key.(i + 1)
        done;
        Vec.push r.r_levels level;
        row
      end
    in
    let packed = pack ~arity row in
    Vec.push e.e_order packed;
    for i = 0 to arity - 1 do
      posting_push e.e_at.(i) key.(i + 1) packed
    done;
    Key_table.add idx.members key packed;
    true
  end

let insert_key idx key ~level =
  Obs.Probe.hit "engine.insert";
  file_key idx key ~level

(** [insert ?level f idx] — add [f]; [false] when it was already present.
    The probe fires before [f]'s symbols are interned. *)
let insert ?(level = 0) f idx =
  Obs.Probe.hit "engine.insert";
  file_key idx (key_intern idx f) ~level

(** [remove f idx] — delete [f]; [false] when it was not present.
    Posting lists are pruned eagerly (order-preserving compaction, with
    empty posting vectors dropped) so candidate counts stay exact, and
    the freed row slot is recycled. *)
let remove_key idx key =
  match Key_table.find_opt idx.members key with
  | None -> false
  | Some packed ->
      Obs.Metrics.incr idx.c_removes;
      Key_table.remove idx.members key;
      let pid = key.(0) and arity = Array.length key - 1 in
      let e = match entry idx pid with Some e -> e | None -> assert false in
      ignore (Vec.remove_value e.e_order packed);
      for i = 0 to arity - 1 do
        let tbl = e.e_at.(i) in
        let cid = key.(i + 1) in
        match Hashtbl.find_opt tbl cid with
        | None -> ()
        | Some (One r) -> if r = packed then Hashtbl.remove tbl cid
        | Some (Many v) ->
            ignore (Vec.remove_value v packed);
            if Vec.length v = 0 then Hashtbl.remove tbl cid
      done;
      (match rel_find e arity with
      | Some r -> Vec.push r.r_free (row_of_packed packed)
      | None -> ());
      true

let remove f idx = match key_find idx f with None -> false | Some key -> remove_key idx key

let level_key idx key =
  match Key_table.find_opt idx.members key with
  | None -> None
  | Some packed -> (
      match entry idx key.(0) with
      | None -> None
      | Some e ->
          Option.map
            (fun r -> Vec.get r.r_levels (row_of_packed packed))
            (rel_find e (arity_of_packed packed)))

let level idx f = match key_find idx f with None -> None | Some key -> level_key idx key

let add f idx =
  ignore (insert f idx);
  idx

let of_instance inst =
  let idx = create () in
  Instance.iter (fun f -> ignore (insert f idx)) inst;
  idx

let intern_fact = key_intern
let find_key = key_find

let fact_of_key idx key =
  let st = idx.symtab in
  Fact.make (Symtab.extern_pred st key.(0))
    (List.init (Array.length key - 1) (fun i -> Symtab.extern st key.(i + 1)))

(* [Fact.compare] is [Stdlib.compare] on [{ pred; args }]: the predicate
   names as strings, then the argument lists lexicographically, a proper
   prefix first; a [Named] constant sorts before every [Null], names by
   string and nulls by number. Equal ids spell equal symbols, so only
   cells that differ are externed. *)
let rec compare_cells st (a : int array) (b : int array) i =
  let na = Array.length a and nb = Array.length b in
  if i = na then if i = nb then 0 else -1
  else if i = nb then 1
  else if a.(i) = b.(i) then compare_cells st a b (i + 1)
  else
    match (Symtab.extern st a.(i), Symtab.extern st b.(i)) with
    | Named x, Named y -> String.compare x y
    | Named _, Null _ -> -1
    | Null _, Named _ -> 1
    | Null x, Null y -> Int.compare x y

let compare_keys idx (a : int array) (b : int array) =
  let st = idx.symtab in
  if a.(0) = b.(0) then compare_cells st a b 1
  else String.compare (Symtab.extern_pred st a.(0)) (Symtab.extern_pred st b.(0))

(* Storage order: pid-ascending over the entry table, each entry's
   [e_order] in append order. [e_order] only ever sees order-preserving
   removals, so replaying the rows into a fresh store rebuilds every
   posting list in the same relative order this store presents. One
   scratch cell array per relation is refilled for each of its rows. *)
let iter_rows idx f =
  let rec scratch_of arity = function
    | ((r, _) as rc) :: rest -> if r.r_arity = arity then rc else scratch_of arity rest
    | [] -> assert false
  in
  Array.iteri
    (fun pid e ->
      match e with
      | None -> ()
      | Some e ->
          let scratch = List.map (fun r -> (r, Array.make r.r_arity 0)) e.e_rels in
          Vec.iter
            (fun packed ->
              let r, cells = scratch_of (arity_of_packed packed) scratch in
              let row = row_of_packed packed in
              for i = 0 to r.r_arity - 1 do
                cells.(i) <- Vec.get r.r_cols.(i) row
              done;
              f pid (Vec.get r.r_levels row) cells)
            e.e_order)
    idx.tabs.entries

let iter_keys idx f =
  iter_rows idx (fun pid level cells ->
      let key = Array.make (Array.length cells + 1) pid in
      Array.blit cells 0 key 1 (Array.length cells);
      f key level)

let to_instance idx =
  Key_table.fold
    (fun key _ acc -> Instance.add_fact (fact_of_key idx key) acc)
    idx.members Instance.empty

(* Decode a list of packed rows to tuples, most recently added first
   (prepending while walking in append order reverses it). *)
let decode_rev idx e p =
  let st = idx.symtab in
  let out = ref [] in
  for k = 0 to posting_length p - 1 do
    let packed = posting_get p k in
    let arity = arity_of_packed packed and row = row_of_packed packed in
    let r = match rel_find e arity with Some r -> r | None -> assert false in
    out := List.init arity (fun i -> Symtab.extern st (Vec.get r.r_cols.(i) row)) :: !out
  done;
  !out

let tuples_of idx p =
  Obs.Metrics.incr idx.c_probes;
  match Symtab.find_pred idx.symtab p with
  | None -> []
  | Some pid -> ( match entry idx pid with None -> [] | Some e -> decode_rev idx e (Many e.e_order))

let posting idx p i c =
  match Symtab.find_pred idx.symtab p with
  | None -> None
  | Some pid -> (
      match entry idx pid with
      | None -> None
      | Some e ->
          if i < 0 || i >= Array.length e.e_at then None
          else (
            match Symtab.find idx.symtab c with
            | None -> None
            | Some cid -> Hashtbl.find_opt e.e_at.(i) cid))

let tuples_at idx p i c =
  Obs.Metrics.incr idx.c_probes;
  match Symtab.find_pred idx.symtab p with
  | None -> []
  | Some pid -> (
      match entry idx pid with
      | None -> []
      | Some e ->
          if i < 0 || i >= Array.length e.e_at then []
          else (
            match Symtab.find idx.symtab c with
            | None -> []
            | Some cid -> (
                match Hashtbl.find_opt e.e_at.(i) cid with
                | None -> []
                | Some v -> decode_rev idx e v)))

let count_at idx p i c = match posting idx p i c with Some v -> posting_length v | None -> 0

let count_of idx p =
  match Symtab.find_pred idx.symtab p with
  | None -> 0
  | Some pid -> ( match entry idx pid with None -> 0 | Some e -> Vec.length e.e_order)

(* The constant at a bound argument position, if any. *)
let bound_const (b : Homomorphism.binding) = function
  | Const c -> Some c
  | Var x -> VarMap.find_opt x b

(* Cheapest bound position of [a] under [b]: [(position, constant, size)]. *)
let best_position idx a (b : Homomorphism.binding) =
  let p = Atom.pred a in
  let best = ref None in
  List.iteri
    (fun i t ->
      match bound_const b t with
      | None -> ()
      | Some c ->
          let n = count_at idx p i c in
          (match !best with
          | Some (_, _, m) when m <= n -> ()
          | _ -> best := Some (i, c, n)))
    (Atom.args a);
  !best

let candidates idx a b =
  match best_position idx a b with
  | Some (i, c, _) -> tuples_at idx (Atom.pred a) i c
  | None -> tuples_of idx (Atom.pred a)

(* Count of the cheapest bound posting — best_position without the
   option and tuple allocations (this runs once per pending atom per
   search node, so it is as hot as the matching itself). *)
let candidate_count idx a (b : Homomorphism.binding) =
  let st = idx.symtab in
  let pid = Symtab.find_pred_int st (Atom.pred a) in
  if pid < 0 then 0
  else
    match entry idx pid with
    | None -> 0
    | Some e ->
        let best = ref (-1) in
        List.iteri
          (fun i t ->
            let cid =
              match t with
              | Const c -> Symtab.find_int st c
              | Var x ->
                  if VarMap.mem x b then Symtab.find_int st (VarMap.find x b) else -2
            in
            if cid >= -1 then begin
              (* bound position; an absent constant means an empty posting *)
              let n =
                if cid < 0 || i >= Array.length e.e_at then 0
                else try posting_length (Hashtbl.find e.e_at.(i) cid) with Not_found -> 0
              in
              if !best < 0 || n < !best then best := n
            end)
          (Atom.args a);
        if !best >= 0 then !best else Vec.length e.e_order

(* Matching over interned rows: the atom is compiled once per call to a
   flat int pattern -- [pids.(i) >= 0] a cell id the position must
   equal, [-1] a bound constant absent from the store (never matches),
   [-2] an unbound variable whose name sits in [pvars.(i)] -- and
   candidates are compared cell-by-cell without materializing tuples.
   Variable bindings made inside the walk are kept as (var, cid) pairs
   and only turned into [VarMap] entries when the whole row matches, so
   failed candidates allocate nothing on the binding path. *)

let fold_matches idx a (b : Homomorphism.binding) ~injective ~on_candidate ~on_fail f acc =
  (* one probe per candidate-list retrieval, like tuples_of/tuples_at *)
  Obs.Metrics.incr idx.c_probes;
  let st = idx.symtab in
  let pid = Symtab.find_pred_int st (Atom.pred a) in
  if pid < 0 then acc
  else
    match entry idx pid with
    | None -> acc
    | Some e -> (
        let args = Atom.args a in
        let arity = List.length args in
        let pids = Array.make arity (-2) in
        let pvars = Array.make arity "" in
        List.iteri
          (fun i t ->
            match t with
            | Const c -> pids.(i) <- Symtab.find_int st c
            | Var x ->
                if VarMap.mem x b then pids.(i) <- Symtab.find_int st (VarMap.find x b)
                else pvars.(i) <- x)
          args;
        (* cheapest bound position, with best_position's exact
           tie-breaking (first strictly-smaller wins) *)
        let best_i = ref (-1) and best_cid = ref (-1) and best_n = ref 0 in
        for i = 0 to arity - 1 do
          let cid = pids.(i) in
          if cid >= -1 then begin
            let n =
              if cid < 0 || i >= Array.length e.e_at then 0
              else try posting_length (Hashtbl.find e.e_at.(i) cid) with Not_found -> 0
            in
            if !best_i < 0 || n < !best_n then begin
              best_i := i;
              best_cid := cid;
              best_n := n
            end
          end
        done;
        let seq =
          if !best_i < 0 then Some (Many e.e_order)
          else if !best_cid < 0 || !best_i >= Array.length e.e_at then None
          else Hashtbl.find_opt e.e_at.(!best_i) !best_cid
        in
        match seq with
        | None -> acc
        | Some v ->
            let used =
              if not injective then None
              else begin
                let tbl = Hashtbl.create 8 in
                VarMap.iter
                  (fun _ c ->
                    let id = Symtab.find_int st c in
                    if id >= 0 then Hashtbl.replace tbl id ())
                  b;
                Some tbl
              end
            in
            (* the relation every matching candidate lives in (packed
               handles of another arity fail the arity check) *)
            let rel_a = rel_find e arity in
            let rec walk r row i locals =
              if i = arity then Some locals
              else
                let cell = Vec.get r.r_cols.(i) row in
                let cid = Array.unsafe_get pids i in
                if cid >= -1 then
                  if cell = cid then walk r row (i + 1) locals else None
                else
                  let x = Array.unsafe_get pvars i in
                  match List.assoc_opt x locals with
                  | Some cid -> if cell = cid then walk r row (i + 1) locals else None
                  | None ->
                      let clash =
                        match used with
                        | None -> false
                        | Some tbl ->
                            Hashtbl.mem tbl cell
                            || List.exists (fun (_, cid) -> cid = cell) locals
                      in
                      if clash then None else walk r row (i + 1) ((x, cell) :: locals)
            in
            let acc = ref acc in
            (* most recently added first = backing vector reversed *)
            for k = posting_length v - 1 downto 0 do
              let packed = posting_get v k in
              on_candidate ();
              if arity_of_packed packed <> arity then on_fail ()
              else begin
                let r = match rel_a with Some r -> r | None -> assert false in
                match walk r (row_of_packed packed) 0 [] with
                | None -> on_fail ()
                | Some locals ->
                    let b' =
                      List.fold_left
                        (fun b (x, cid) -> VarMap.add x (Symtab.extern st cid) b)
                        b locals
                    in
                    acc := f b' !acc
              end
            done;
            !acc)

(* ------------------------------------------------------------------ *)
(* Compiled atoms: the interned, allocation-free matching fast path      *)
(* ------------------------------------------------------------------ *)

(* A query atom compiled once per request against this store's symbol
   table. Constant arguments resolve to cell ids ([-1] when the constant
   is unknown to the store: a bound position that never matches);
   variable arguments resolve to slots of a caller-owned binding
   environment [benv] ([benv.(slot) >= 0] bound to that cell id, [-1]
   unbound). [c_trail] is private per-walk scratch: slots bound while
   matching one candidate row, undone before the next; [c_level] is the
   s-level of the row being matched, for the callback to read. *)
type catom = {
  c_pid : int;  (* interned predicate id; -1 = unknown predicate *)
  c_arity : int;
  c_cells : int array;  (* >= 0 const cid; -1 unknown const; -2 variable *)
  c_slots : int array;  (* per position: benv slot when c_cells.(i) = -2 *)
  c_trail : int array;
  mutable c_level : int;
}

let compile_atom idx ~slot a =
  let st = idx.symtab in
  let args = Atom.args a in
  let arity = List.length args in
  let cells = Array.make arity (-2) and slots = Array.make arity (-1) in
  List.iteri
    (fun i t ->
      match t with
      | Const c -> cells.(i) <- Symtab.find_int st c
      | Var x -> slots.(i) <- slot x)
    args;
  {
    c_pid = Symtab.find_pred_int st (Atom.pred a);
    c_arity = arity;
    c_cells = cells;
    c_slots = slots;
    c_trail = Array.make (max arity 1) 0;
    c_level = 0;
  }

let catom_level ca = ca.c_level
let catom_pid ca = ca.c_pid

(* Bind [ca] against a stored key [| pid; cid… |] in place: constants
   must agree, bound slots must agree, unbound slots take the cell. On a
   mismatch the slots bound so far are undone. *)
let catom_match_key ca ~benv (key : int array) =
  Array.length key = ca.c_arity + 1
  && key.(0) = ca.c_pid
  &&
  let trail = ca.c_trail in
  let nt = ref 0 and ok = ref true and i = ref 0 in
  while !ok && !i < ca.c_arity do
    let cell = Array.unsafe_get key (!i + 1) in
    let c = Array.unsafe_get ca.c_cells !i in
    if c >= -1 then begin
      if cell <> c then ok := false
    end
    else begin
      let s = Array.unsafe_get ca.c_slots !i in
      let cur = Array.unsafe_get benv s in
      if cur >= 0 then begin
        if cell <> cur then ok := false
      end
      else begin
        benv.(s) <- cell;
        trail.(!nt) <- s;
        incr nt
      end
    end;
    incr i
  done;
  if not !ok then
    for j = 0 to !nt - 1 do
      benv.(trail.(j)) <- -1
    done;
  !ok

let catom_clear ca ~benv =
  for i = 0 to ca.c_arity - 1 do
    if Array.unsafe_get ca.c_cells i = -2 then benv.(Array.unsafe_get ca.c_slots i) <- -1
  done

(* The effective pattern id of position [i] under [benv], and whether the
   position counts as bound — mirrors the [cid >= -1] convention of
   [candidate_count]: a constant (known or not) is bound, a variable is
   bound iff its slot is. *)
let[@inline] cell_pattern ca benv i =
  let c = Array.unsafe_get ca.c_cells i in
  if c >= -1 then c else Array.unsafe_get benv (Array.unsafe_get ca.c_slots i)

let[@inline] cell_bound ca benv i =
  Array.unsafe_get ca.c_cells i >= -1 || cell_pattern ca benv i >= 0

(* Does the atom still contain an unbound variable under [benv]? The
   enumerator's atom-selection predicate. *)
let catom_unbound ca ~benv =
  let r = ref false in
  for i = 0 to ca.c_arity - 1 do
    if
      Array.unsafe_get ca.c_cells i = -2
      && Array.unsafe_get benv (Array.unsafe_get ca.c_slots i) < 0
    then r := true
  done;
  !r

(* [candidate_count], compiled: identical bucket arithmetic and
   first-strictly-smaller tie-breaking, no name resolution, no probe. *)
let catom_count idx ca ~benv =
  if ca.c_pid < 0 then 0
  else
    match entry idx ca.c_pid with
    | None -> 0
    | Some e ->
        let best = ref (-1) in
        for i = 0 to ca.c_arity - 1 do
          if cell_bound ca benv i then begin
            let cid = cell_pattern ca benv i in
            let n =
              if cid < 0 || i >= Array.length e.e_at then 0
              else
                try posting_length (Hashtbl.find e.e_at.(i) cid)
                with Not_found -> 0
            in
            if !best < 0 || n < !best then best := n
          end
        done;
        if !best >= 0 then !best else Vec.length e.e_order

(* [fold_matches], compiled: same posting-list choice, candidate order
   (most recently added first) and [on_candidate]/[on_fail] accounting,
   but bindings go into [benv] in place (trail-undone per candidate and
   at exit) instead of a fresh [VarMap] per match, so a full search tree
   allocates nothing here. [f arg] runs with the extension visible in
   [benv]; returning [true] stops the walk (the satisfiability caller's
   early exit) and is returned. Non-injective only — the enumeration
   paths never ask for injectivity. Counts one [index.probes] probe,
   like the retrieval it replaces. *)
let fold_catom idx ca ~benv ~on_candidate ~on_fail (f : int -> bool) arg =
  Obs.Metrics.incr idx.c_probes;
  if ca.c_pid < 0 then false
  else
    match entry idx ca.c_pid with
    | None -> false
    | Some e -> (
        let arity = ca.c_arity in
        let best_i = ref (-1) and best_cid = ref (-1) and best_n = ref 0 in
        for i = 0 to arity - 1 do
          if cell_bound ca benv i then begin
            let cid = cell_pattern ca benv i in
            let n =
              if cid < 0 || i >= Array.length e.e_at then 0
              else
                try posting_length (Hashtbl.find e.e_at.(i) cid)
                with Not_found -> 0
            in
            if !best_i < 0 || n < !best_n then begin
              best_i := i;
              best_cid := cid;
              best_n := n
            end
          end
        done;
        let seq =
          if !best_i < 0 then Some (Many e.e_order)
          else if !best_cid < 0 || !best_i >= Array.length e.e_at then None
          else Hashtbl.find_opt e.e_at.(!best_i) !best_cid
        in
        match seq with
        | None -> false
        | Some v ->
            let rel_a = rel_find e arity in
            let trail = ca.c_trail in
            let stopped = ref false in
            let k = ref (posting_length v - 1) in
            while (not !stopped) && !k >= 0 do
              let packed = posting_get v !k in
              decr k;
              on_candidate ();
              if arity_of_packed packed <> arity then on_fail ()
              else begin
                let r = match rel_a with Some r -> r | None -> assert false in
                let row = row_of_packed packed in
                let nt = ref 0 and ok = ref true and i = ref 0 in
                while !ok && !i < arity do
                  let cell = Vec.get r.r_cols.(!i) row in
                  let c = Array.unsafe_get ca.c_cells !i in
                  if c >= -1 then begin
                    if cell <> c then ok := false
                  end
                  else begin
                    let s = Array.unsafe_get ca.c_slots !i in
                    let cur = Array.unsafe_get benv s in
                    if cur >= 0 then begin
                      if cell <> cur then ok := false
                    end
                    else begin
                      benv.(s) <- cell;
                      trail.(!nt) <- s;
                      incr nt
                    end
                  end;
                  incr i
                done;
                if !ok then begin
                  ca.c_level <- Vec.get r.r_levels row;
                  if f arg then stopped := true
                end
                else on_fail ();
                for j = 0 to !nt - 1 do
                  benv.(trail.(j)) <- -1
                done
              end
            done;
            !stopped)

(* Allocated capacity of the store, in words — the capacity-leak
   regression tests assert this stays put under insert/delete churn:
   every growable vector, plus one word per bucket of the membership
   table and of every posting table. *)
let capacity_words idx =
  let vec v = Vec.capacity v in
  let buckets tbl = (Hashtbl.stats tbl).Hashtbl.num_buckets in
  Array.fold_left
    (fun acc e ->
      match e with
      | None -> acc
      | Some e ->
          let acc = acc + vec e.e_order in
          let acc =
            List.fold_left
              (fun acc r ->
                Array.fold_left
                  (fun acc col -> acc + vec col)
                  (acc + vec r.r_free + vec r.r_levels)
                  r.r_cols)
              acc e.e_rels
          in
          Array.fold_left
            (fun acc tbl ->
              Hashtbl.fold
                (fun _ p acc -> acc + match p with One _ -> 1 | Many v -> vec v)
                tbl (acc + buckets tbl))
            acc e.e_at)
    (Key_table.stats idx.members).Hashtbl.num_buckets
    idx.tabs.entries

let membership_stats idx = Key_table.stats idx.members
