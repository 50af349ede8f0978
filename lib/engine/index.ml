(** Indexed fact store, columnar edition.

    Symbols are interned to dense ints ({!Symtab}) and each predicate's
    tuples live in contiguous int columns ({!Vec}); posting lists and
    the per-predicate insertion order are flat int vectors of packed row
    handles, and membership is hash-partitioned over [n_shards] disjoint
    sub-tables keyed by the interned fact key. See the interface for the
    contract — the observable behaviour (iteration order, counters,
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

(* Membership shards: the interned fact key hashes to one of [n_shards]
   disjoint sub-tables, each owning its slice of the fact set. *)
let n_shards = 16

type rel = {
  r_arity : int;
  r_cols : Vec.t array;  (* one column per argument position *)
  mutable r_rows : int;  (* row slots allocated, including freed ones *)
  r_free : Vec.t;  (* freed row slots, reused by the next insert *)
}

type entry = {
  mutable e_rels : rel list;  (* by arity; almost always a singleton *)
  e_order : Vec.t;  (* live rows in append order *)
  mutable e_at : (int, Vec.t) Hashtbl.t array;  (* position -> cid -> posting *)
}

(* The predicate table is shared through a one-field record so readers
   keep seeing growth of the pid-indexed array. *)
type tables = { mutable entries : entry option array }

type t = {
  symtab : Symtab.t;
  tabs : tables;
  shards : (int array, int) Hashtbl.t array;  (* fact key -> packed row *)
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
    shards = Array.init n_shards (fun _ -> Hashtbl.create 64);
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

let shard_of idx key = idx.shards.(Hashtbl.hash key land (n_shards - 1))

let mem f idx =
  match key_find idx f with None -> false | Some key -> Hashtbl.mem (shard_of idx key) key

let size idx = Array.fold_left (fun acc sh -> acc + Hashtbl.length sh) 0 idx.shards

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

let rel_find e arity = List.find_opt (fun r -> r.r_arity = arity) e.e_rels

let rel_of e arity =
  match rel_find e arity with
  | Some r -> r
  | None ->
      let r =
        {
          r_arity = arity;
          r_cols = Array.init arity (fun _ -> Vec.create ());
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

let posting_of tbl cid =
  match Hashtbl.find_opt tbl cid with
  | Some v -> v
  | None ->
      let v = Vec.create ~capacity:4 () in
      Hashtbl.replace tbl cid v;
      v

(** [insert f idx] — add [f]; [false] when it was already present. *)
let insert f idx =
  Obs.Probe.hit "engine.insert";
  let key = key_intern idx f in
  let sh = shard_of idx key in
  if Hashtbl.mem sh key then begin
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
        row
      end
      else begin
        let row = r.r_rows in
        r.r_rows <- row + 1;
        for i = 0 to arity - 1 do
          Vec.push r.r_cols.(i) key.(i + 1)
        done;
        row
      end
    in
    let packed = pack ~arity row in
    Vec.push e.e_order packed;
    for i = 0 to arity - 1 do
      Vec.push (posting_of e.e_at.(i) key.(i + 1)) packed
    done;
    Hashtbl.replace sh key packed;
    true
  end

(** [remove f idx] — delete [f]; [false] when it was not present.
    Posting lists are pruned eagerly (order-preserving compaction, with
    empty posting vectors dropped) so candidate counts stay exact, and
    the freed row slot is recycled. *)
let remove f idx =
  match key_find idx f with
  | None -> false
  | Some key -> (
      let sh = shard_of idx key in
      match Hashtbl.find_opt sh key with
      | None -> false
      | Some packed ->
          Obs.Metrics.incr idx.c_removes;
          Hashtbl.remove sh key;
          let pid = key.(0) and arity = Array.length key - 1 in
          let e = match entry idx pid with Some e -> e | None -> assert false in
          ignore (Vec.remove_value e.e_order packed);
          for i = 0 to arity - 1 do
            let tbl = e.e_at.(i) in
            let cid = key.(i + 1) in
            match Hashtbl.find_opt tbl cid with
            | None -> ()
            | Some v ->
                ignore (Vec.remove_value v packed);
                if Vec.length v = 0 then Hashtbl.remove tbl cid
          done;
          (match rel_find e arity with
          | Some r -> Vec.push r.r_free (row_of_packed packed)
          | None -> ());
          true)

let add f idx =
  ignore (insert f idx);
  idx

let of_instance inst =
  let idx = create () in
  Instance.iter (fun f -> ignore (insert f idx)) inst;
  idx

let decode_key idx key =
  let st = idx.symtab in
  Fact.make (Symtab.extern_pred st key.(0))
    (List.init (Array.length key - 1) (fun i -> Symtab.extern st key.(i + 1)))

(* Storage order: pid-ascending over the entry table, each entry's
   [e_order] in append order. [e_order] only ever sees order-preserving
   removals, so replaying the returned facts into a fresh store rebuilds
   every posting list in the same relative order this store presents. *)
let ordered_facts idx =
  let st = idx.symtab in
  let out = ref [] in
  Array.iteri
    (fun pid e ->
      match e with
      | None -> ()
      | Some e ->
          let p = Symtab.extern_pred st pid in
          Vec.iter
            (fun packed ->
              let arity = arity_of_packed packed and row = row_of_packed packed in
              let r =
                match rel_find e arity with Some r -> r | None -> assert false
              in
              out :=
                Fact.make p
                  (List.init arity (fun i ->
                       Symtab.extern st (Vec.get r.r_cols.(i) row)))
                :: !out)
            e.e_order)
    idx.tabs.entries;
  List.rev !out

let to_instance idx =
  Array.fold_left
    (fun acc sh -> Hashtbl.fold (fun key _ acc -> Instance.add_fact (decode_key idx key) acc) sh acc)
    Instance.empty idx.shards

(* Decode a vector of packed rows to tuples, most recently added first
   (prepending while walking in append order reverses it). *)
let decode_rev idx e v =
  let st = idx.symtab in
  let out = ref [] in
  Vec.iter
    (fun packed ->
      let arity = arity_of_packed packed and row = row_of_packed packed in
      let r = match rel_find e arity with Some r -> r | None -> assert false in
      out := List.init arity (fun i -> Symtab.extern st (Vec.get r.r_cols.(i) row)) :: !out)
    v;
  !out

let tuples_of idx p =
  Obs.Metrics.incr idx.c_probes;
  match Symtab.find_pred idx.symtab p with
  | None -> []
  | Some pid -> ( match entry idx pid with None -> [] | Some e -> decode_rev idx e e.e_order)

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

let count_at idx p i c = match posting idx p i c with Some v -> Vec.length v | None -> 0

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
                else try Vec.length (Hashtbl.find e.e_at.(i) cid) with Not_found -> 0
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
              else try Vec.length (Hashtbl.find e.e_at.(i) cid) with Not_found -> 0
            in
            if !best_i < 0 || n < !best_n then begin
              best_i := i;
              best_cid := cid;
              best_n := n
            end
          end
        done;
        let seq =
          if !best_i < 0 then Some e.e_order
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
            for k = Vec.length v - 1 downto 0 do
              let packed = Vec.get v k in
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
   matching one candidate row, undone before the next. *)
type catom = {
  c_pid : int;  (* interned predicate id; -1 = unknown predicate *)
  c_arity : int;
  c_cells : int array;  (* >= 0 const cid; -1 unknown const; -2 variable *)
  c_slots : int array;  (* per position: benv slot when c_cells.(i) = -2 *)
  c_trail : int array;
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
  }

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
                try Vec.length (Hashtbl.find e.e_at.(i) cid)
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
                try Vec.length (Hashtbl.find e.e_at.(i) cid)
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
          if !best_i < 0 then Some e.e_order
          else if !best_cid < 0 || !best_i >= Array.length e.e_at then None
          else Hashtbl.find_opt e.e_at.(!best_i) !best_cid
        in
        match seq with
        | None -> false
        | Some v ->
            let rel_a = rel_find e arity in
            let trail = ca.c_trail in
            let stopped = ref false in
            let k = ref (Vec.length v - 1) in
            while (not !stopped) && !k >= 0 do
              let packed = Vec.get v !k in
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
                if !ok then begin if f arg then stopped := true end
                else on_fail ();
                for j = 0 to !nt - 1 do
                  benv.(trail.(j)) <- -1
                done
              end
            done;
            !stopped)

(* Allocated capacity of the store's flat vectors, in words — the
   capacity-leak regression tests assert this stays put under
   insert/delete churn. Hash-table buckets are not counted (stdlib
   tables expose no capacity), but every growable vector is. *)
let capacity_words idx =
  let vec v = Vec.capacity v in
  Array.fold_left
    (fun acc e ->
      match e with
      | None -> acc
      | Some e ->
          let acc = acc + vec e.e_order in
          let acc =
            List.fold_left
              (fun acc r ->
                Array.fold_left (fun acc col -> acc + vec col) (acc + vec r.r_free) r.r_cols)
              acc e.e_rels
          in
          Array.fold_left
            (fun acc tbl -> Hashtbl.fold (fun _ v acc -> acc + vec v) tbl acc)
            acc e.e_at)
    0 idx.tabs.entries
