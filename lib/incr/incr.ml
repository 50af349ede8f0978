(** Incremental chase maintenance; see the interface for the contract.

    The store runs on interned fact keys [[| pid; cid1; …; cidn |]], the
    keys {!Engine.Index} files; a [Fact.t] is built only at the API
    edges (mutations in, {!instance}/{!base}/{!checkpoint} out). The
    ledger is two key tables over one mutable [derivation] record per
    fired trigger: [facts] maps a fact key to the derivations producing
    it and those consuming it, [fired] maps a trigger key to its (live)
    derivation. A derivation dies when any of its body facts is
    over-deleted; its key leaves [fired] at the same moment, so the
    trigger may legitimately refire during repair. Dead records are
    pruned lazily from the per-fact lists.

    Two orders are load-bearing, both [Fact.compare]'s, read off the
    symbols with {!Engine.Index.compare_keys}: a derivation's body and
    head are kept in that order without duplicates (the image writes
    them so), and the over-delete set reaches re-derive and propagate in
    that order (it decides firing order, hence null ids and storage
    order).

    Soundness of running {!Engine.Saturate.continue} with a fresh
    trigger-key table after every mutation: a trigger enumerated by the
    delta fixpoint has a body fact in the transitive delta; for an insert
    that fact never existed before (so the trigger never fired), and for
    a delete it was over-deleted first (so the trigger's old firing was
    invalidated and removed from [fired]). Either way the firing is not a
    duplicate. *)

open Relational

module Key_table = Engine.Index.Key_table

type derivation = {
  d_key : int array;  (* the trigger's key, [| rule; symbol id per body variable |] *)
  d_body : int array list;  (* grounded body fact keys, deduplicated, sorted *)
  d_outs : int array list;  (* grounded head fact keys, deduplicated, sorted *)
  mutable d_live : bool;
}

(* A fact's place in the ledger: the derivations producing it and the
   derivations consuming it, dead ones included until pruned. *)
type support = {
  mutable s_derivs : derivation list;
  mutable s_uses : derivation list;
}

type op = Insert of Fact.t | Delete of Fact.t

type effect = {
  e_op : op;
  e_noop : bool;
  e_repaired : int;
  e_overdeleted : int;
  e_rederived : int;
  e_deleted : int;
}

type t = {
  rules : Engine.Saturate.rule list;
  idx : Engine.Index.t;  (* the facts with their s-levels *)
  base : unit Key_table.t;
  facts : support Key_table.t;
  fired : derivation Key_table.t;
  mutable level : int;  (* highest pass number handed to [continue] *)
  mutable sat : bool;
  mutable dirty : bool;  (* a mutation started changing state and died *)
  (* maintenance counters, registered on the index's metrics registry so
     they travel with the usual report plumbing *)
  c_inserts : Obs.Metrics.counter;
  c_deletes : Obs.Metrics.counter;
  c_noops : Obs.Metrics.counter;
  c_repaired : Obs.Metrics.counter;
  c_overdeleted : Obs.Metrics.counter;
  c_rederived : Obs.Metrics.counter;
  c_deleted : Obs.Metrics.counter;
}

let saturated t = t.sat
let dirty t = t.dirty

let ensure_saturated t =
  if not t.sat then invalid_arg "Incr: store is not saturated"

(* A mutation that raised after its first state change leaves the store
   between consistent states; retrying on it is unsound. Callers must
   rebuild (e.g. {!of_checkpoint}) instead. *)
let ensure_clean t =
  if t.dirty then invalid_arg "Incr: store is dirty (interrupted mutation)"

(* ---- ledger primitives ------------------------------------------------ *)

let support_of facts key =
  match Key_table.find_opt facts key with
  | Some s -> s
  | None ->
      let s = { s_derivs = []; s_uses = [] } in
      Key_table.add facts key s;
      s

(* Live derivations of [key], pruning dead records in passing. *)
let live_derivs facts key =
  match Key_table.find_opt facts key with
  | None -> []
  | Some s ->
      let l = List.filter (fun d -> d.d_live) s.s_derivs in
      s.s_derivs <- l;
      l

(* Keys in [Fact.compare] order, duplicates removed. *)
let canonical idx = function
  | ([] | [ _ ]) as l -> l
  | l -> List.sort_uniq (Engine.Index.compare_keys idx) l

(* File [d] under its trigger key and on the lists of its facts. *)
let file ~facts ~fired d =
  Key_table.replace fired d.d_key d;
  List.iter
    (fun k ->
      let s = support_of facts k in
      s.s_uses <- d :: s.s_uses)
    d.d_body;
  List.iter
    (fun k ->
      let s = support_of facts k in
      s.s_derivs <- d :: s.s_derivs)
    d.d_outs

let record ~facts ~fired (fir : Engine.Saturate.firing) =
  let idx = fir.Engine.Saturate.fire_index in
  file ~facts ~fired
    {
      d_key = fir.Engine.Saturate.fire_key;
      d_body = canonical idx fir.Engine.Saturate.fire_body;
      d_outs = canonical idx (List.map fst fir.Engine.Saturate.fire_outs);
      d_live = true;
    }

let kill t d =
  d.d_live <- false;
  (match Key_table.find_opt t.fired d.d_key with
  | Some d' when d' == d -> Key_table.remove t.fired d.d_key
  | _ -> ())

(* ---- construction ----------------------------------------------------- *)

let check_engine : Tgds.Chase.engine -> unit = function
  | `Naive -> invalid_arg "Incr.create: maintenance requires the indexed engine"
  | `Indexed -> ()

(* The store around its tables. *)
let assemble sigma ~idx ~base ~facts ~fired ~level ~sat =
  let m = Engine.Index.metrics idx in
  {
    rules =
      List.map
        (fun t ->
          Engine.Saturate.{ body = Tgds.Tgd.body t; head = Tgds.Tgd.head t })
        sigma;
    idx;
    base;
    facts;
    fired;
    level;
    sat;
    dirty = false;
    c_inserts = Obs.Metrics.counter m "incr.inserts";
    c_deletes = Obs.Metrics.counter m "incr.deletes";
    c_noops = Obs.Metrics.counter m "incr.noops";
    c_repaired = Obs.Metrics.counter m "incr.repaired";
    c_overdeleted = Obs.Metrics.counter m "incr.overdeleted";
    c_rederived = Obs.Metrics.counter m "incr.rederived";
    c_deleted = Obs.Metrics.counter m "incr.deleted";
  }

let create ?(engine = `Indexed) ?max_level ?obs sigma db =
  check_engine engine;
  (* A table that grows rehashes every key it holds, a cache miss or
     more apiece. Sized for the couple of derived facts and firings a
     base fact typically brings (lubm: 3.3 and 3), they never grow on a
     lubm store; grown from 1,024 buckets they cost about a third of
     recording a lubm-160 ledger. *)
  let n = 2 * Instance.size db in
  let facts = Key_table.create n and fired = Key_table.create n in
  let r =
    Tgds.Chase.run ~engine ~policy:Tgds.Chase.Oblivious ?max_level ?obs
      ~on_fire:(record ~facts ~fired) sigma db
  in
  let idx = Tgds.Chase.index r in
  (* the chase files [db] at level 0 and everything it derives above *)
  let base = Key_table.create (Instance.size db) in
  Engine.Index.iter_keys idx (fun key l -> if l = 0 then Key_table.replace base key ());
  assemble sigma ~idx ~base ~facts ~fired ~level:(Tgds.Chase.max_level r)
    ~sat:(Tgds.Chase.saturated r)

(* ---- the delta fixpoint over the live store --------------------------- *)

(* Run [Saturate.continue] from the fact keys [delta] (already inserted
   into the index with levels set), recording new derivations. Returns
   the number of facts the fixpoint added. *)
let propagate ?obs t delta =
  if delta = [] then 0
  else begin
    let r =
      Engine.Saturate.continue ~policy:Engine.Saturate.Oblivious ?obs
        ~on_fire:(record ~facts:t.facts ~fired:t.fired)
        t.rules ~index:t.idx ~level:t.level delta
    in
    t.level <- r.Engine.Saturate.max_level;
    List.fold_left ( + ) 0 r.Engine.Saturate.facts_per_level
  end

(* ---- mutations -------------------------------------------------------- *)

let fact_attr f = Obs.Json.String (Fmt.str "%a" Fact.pp f)

(* [f]'s key when [f] is a base fact. Never interns: a fact with a
   symbol the store has not seen is not a base fact. *)
let base_key t f =
  match Engine.Index.find_key t.idx f with
  | Some key when Key_table.mem t.base key -> Some key
  | _ -> None

let insert ?obs t f =
  ensure_saturated t;
  ensure_clean t;
  (* probe before the first state change: an injected fault here leaves
     the store clean, so retrying the mutation is sound *)
  Obs.Probe.hit "incr.insert";
  let span = Option.map (fun p -> Obs.Span.enter p "insert") obs in
  Option.iter (fun s -> Obs.Span.set s "fact" (fact_attr f)) span;
  let eff =
    if Option.is_some (base_key t f) then begin
      Obs.Metrics.incr t.c_noops;
      { e_op = Insert f; e_noop = true; e_repaired = 0; e_overdeleted = 0;
        e_rederived = 0; e_deleted = 0 }
    end
    else begin
      Obs.Metrics.incr t.c_inserts;
      t.dirty <- true;
      (* a symbol never seen is interned here, predicate first — as
         filing the fact would intern it *)
      let key = Engine.Index.intern_fact t.idx f in
      Key_table.replace t.base key ();
      let repaired =
        if Engine.Index.mem_key t.idx key then 0
          (* already derivable: it gains base membership, nothing fires —
             every trigger over the existing facts has fired already *)
        else begin
          ignore (Engine.Index.insert_key t.idx key ~level:0);
          1 + propagate ?obs:span t [ key ]
        end
      in
      Obs.Metrics.add t.c_repaired repaired;
      t.dirty <- false;
      { e_op = Insert f; e_noop = false; e_repaired = repaired;
        e_overdeleted = 0; e_rederived = 0; e_deleted = 0 }
    end
  in
  Option.iter
    (fun s ->
      Obs.Span.set s "repaired" (Obs.Json.Int eff.e_repaired);
      Obs.Span.exit s)
    span;
  eff

(* Canonical-ish level of a re-derived fact key: base facts are level 0,
   others sit one above their cheapest surviving derivation. Live
   derivations never lost a body fact, so every body level is present. *)
let relevel t key =
  if Key_table.mem t.base key then 0
  else
    List.fold_left
      (fun acc d ->
        let bl =
          List.fold_left
            (fun m g ->
              max m (Option.value ~default:0 (Engine.Index.level_key t.idx g)))
            0 d.d_body
        in
        min acc (bl + 1))
      max_int (live_derivs t.facts key)

let delete ?obs t f =
  ensure_saturated t;
  ensure_clean t;
  Obs.Probe.hit "incr.delete";
  let span = Option.map (fun p -> Obs.Span.enter p "delete") obs in
  Option.iter (fun s -> Obs.Span.set s "fact" (fact_attr f)) span;
  let eff =
    match base_key t f with
    | None ->
        Obs.Metrics.incr t.c_noops;
        { e_op = Delete f; e_noop = true; e_repaired = 0; e_overdeleted = 0;
          e_rederived = 0; e_deleted = 0 }
    | Some key ->
        Obs.Metrics.incr t.c_deletes;
        t.dirty <- true;
        Key_table.remove t.base key;
        (* Phase 1: over-delete. Retract [f] and, transitively, every fact
           produced by a derivation that consumed a retracted fact. The
           retracted set is order-independent (a closure), so the phases
           below are deterministic after sorting. *)
        let over = ref [] in
        let stack = ref [ key ] in
        while !stack <> [] do
          let g = List.hd !stack in
          stack := List.tl !stack;
          if Engine.Index.remove_key t.idx g then begin
            over := g :: !over;
            match Key_table.find_opt t.facts g with
            | None -> ()
            | Some s ->
                List.iter
                  (fun d ->
                    if d.d_live then begin
                      kill t d;
                      List.iter (fun o -> stack := o :: !stack) d.d_outs
                    end)
                  s.s_uses;
                s.s_uses <- []
          end
        done;
        let over = List.sort (Engine.Index.compare_keys t.idx) !over in
        let overdeleted = List.length over in
        (* Phase 2: re-derive. A retracted fact comes straight back when it
           is still base, or still carries a live derivation (one whose
           body never touched the retracted set). *)
        let red =
          List.filter
            (fun g -> Key_table.mem t.base g || live_derivs t.facts g <> [])
            over
        in
        List.iter
          (fun g -> ignore (Engine.Index.insert_key t.idx g ~level:(relevel t g)))
          red;
        (* Ledger entries of facts that stayed out hold only dead records. *)
        List.iter
          (fun g -> if not (Engine.Index.mem_key t.idx g) then Key_table.remove t.facts g)
          over;
        (* Phase 3: propagate. The re-inserted facts are the delta; the
           invalidated triggers whose bodies survived refire here (and may
           resurrect more of the retracted set, with fresh nulls where the
           original derivation passed through an existential). *)
        let repaired = propagate ?obs:span t red in
        let deleted =
          List.length (List.filter (fun g -> not (Engine.Index.mem_key t.idx g)) over)
        in
        Obs.Metrics.add t.c_overdeleted overdeleted;
        Obs.Metrics.add t.c_rederived (List.length red);
        Obs.Metrics.add t.c_repaired repaired;
        Obs.Metrics.add t.c_deleted deleted;
        t.dirty <- false;
        { e_op = Delete f; e_noop = false; e_repaired = repaired;
          e_overdeleted = overdeleted; e_rederived = List.length red;
          e_deleted = deleted }
  in
  Option.iter
    (fun s ->
      Obs.Span.set s "overdeleted" (Obs.Json.Int eff.e_overdeleted);
      Obs.Span.set s "rederived" (Obs.Json.Int eff.e_rederived);
      Obs.Span.set s "repaired" (Obs.Json.Int eff.e_repaired);
      Obs.Span.set s "deleted" (Obs.Json.Int eff.e_deleted);
      Obs.Span.exit s)
    span;
  eff

let apply ?obs t = function
  | Insert f -> insert ?obs t f
  | Delete f -> delete ?obs t f

(* ---- views ------------------------------------------------------------ *)

let instance t = Engine.Index.to_instance t.idx
let index t = t.idx
let size t = Engine.Index.size t.idx
let base_size t = Key_table.length t.base

let base t =
  Key_table.fold
    (fun key () acc -> Instance.add_fact (Engine.Index.fact_of_key t.idx key) acc)
    t.base Instance.empty

let support_count t f =
  match Engine.Index.find_key t.idx f with
  | None -> 0
  | Some key -> List.length (live_derivs t.facts key)

let metrics t = Engine.Index.metrics t.idx

(* ---- checkpointing ---------------------------------------------------- *)

(* Canonical s-levels: minimum derivation depth over the live ledger,
   base facts at 0. This equals the level the level-wise chase assigns —
   the oblivious chase fires every trigger at the earliest pass its body
   is complete, so a fact's s-level is [min] over its producing triggers
   of [1 + max body level]. Monotone decreasing fixpoint; terminates
   because levels only shrink. *)
let canonical_levels t =
  let lev = Key_table.create (size t) in
  Key_table.iter (fun key () -> Key_table.replace lev key 0) t.base;
  let ds = Key_table.fold (fun _ d acc -> d :: acc) t.fired [] in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun d ->
        let bl =
          List.fold_left
            (fun acc g ->
              match (acc, Key_table.find_opt lev g) with
              | Some m, Some l -> Some (max m l)
              | _ -> None)
            (Some 0) d.d_body
        in
        match bl with
        | None -> () (* some body level still unknown this round *)
        | Some m ->
            List.iter
              (fun o ->
                match Key_table.find_opt lev o with
                | Some cur when cur <= m + 1 -> ()
                | _ ->
                    Key_table.replace lev o (m + 1);
                    changed := true)
              d.d_outs)
      ds
  done;
  lev

let checkpoint t : Tgds.Chase.snapshot =
  ensure_saturated t;
  let lev = canonical_levels t in
  let snap_facts = ref [] in
  Engine.Index.iter_keys t.idx (fun key stored ->
      let l = match Key_table.find_opt lev key with Some l -> l | None -> stored in
      snap_facts := (Engine.Index.fact_of_key t.idx key, l) :: !snap_facts);
  let snap_facts = List.rev !snap_facts in
  let snap_level = List.fold_left (fun acc (_, l) -> max acc l) 0 snap_facts in
  {
    Tgds.Chase.snap_engine = `Indexed;
    snap_policy = Tgds.Chase.Oblivious;
    snap_level;
    snap_saturated = true;
    snap_null_count = Term.null_count ();
    snap_triggers_fired = Key_table.length t.fired;
    snap_triggers_dismissed = 0;
    snap_facts;
    snap_counters = Obs.Metrics.counters (metrics t);
  }

let of_checkpoint ?engine ?obs sigma (s : Tgds.Chase.snapshot) =
  let db =
    List.fold_left
      (fun acc (f, l) -> if l = 0 then Instance.add_fact f acc else acc)
      Instance.empty s.Tgds.Chase.snap_facts
  in
  create ?engine ?obs sigma db

(* ---- exact images ----------------------------------------------------- *)

(* Exactness argument: the only store state observable through the
   mutation/checkpoint API is (a) the facts and their index iteration
   order (candidate order during joins — determines firing order and
   hence fresh-null assignment of future propagation), (b) the s-levels,
   (c) the base set, (d) the live ledger (support counts, over-delete
   cascades), (e) [level], the global null counter and the metrics.
   Storage order captures (a) only together with the symbol table's
   interning order: facts are stored grouped by predicate id, so a
   predicate interned early whose facts were all later deleted still
   holds its low pid, and a rebuild that re-interned symbols from the
   surviving facts alone would assign different ids and a different
   storage order. The image therefore carries the full id-order
   enumeration of both spaces ([syms]/[preds]) and spells every fact by
   those ids; [of_image] re-interns them first, after which re-inserting
   [facts] in order reproduces (a) exactly (row handles and free-list
   state differ but are not observable). Every live derivation sits in
   [fired] (a killed record leaves [fired] at death), so folding [fired]
   captures (d) entirely. Ledger list order inside [s_derivs]/[s_uses] is
   not observable: every reader either folds associatively (relevel,
   support_count) or computes an order-independent closure
   (over-delete).

   Byte stability, [image (of_image im) = im]: [facts] follow storage
   order, [base] is sorted by interned fact key and [ledger] by interned
   trigger key; the rebuild reproduces both the storage order and the
   ids. (Hash-table iteration order would not do: it depends on each
   table's growth history, which a rebuild does not repeat.) *)

let image_schema = "guarded-serve-image"
let image_version = 3

(* -- encoding: one pass from the store into one buffer ---------------- *)

let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_digits b (-n)
  end
  else add_digits b n

(* [,c1,…,cn] *)
let add_cells b cells =
  for i = 0 to Array.length cells - 1 do
    Buffer.add_char b ',';
    add_int b cells.(i)
  done

(* the fact key [| pid; c1; …; cn |] as the row [pid,c1,…,cn] *)
let add_row b key =
  Buffer.add_char b '[';
  add_int b key.(0);
  for i = 1 to Array.length key - 1 do
    Buffer.add_char b ',';
    add_int b key.(i)
  done;
  Buffer.add_char b ']'

(* Rows, comma-separated. Plain recursion: this runs once per ledger
   row, and a closure per call would dominate the encoder's allocation. *)
let rec add_rows b = function
  | [] -> ()
  | key :: rest ->
      add_row b key;
      if rest <> [] then Buffer.add_char b ',';
      add_rows b rest

(* Interned keys, flattened: row [i] of a [keys] array of width [w] is
   [keys.(i * w) .. keys.(i * w + w - 1)], padded with [pad] — below
   every id and below the [-1] of an unbound trigger-key position, so a
   key sorts before its extensions. One flat int array keeps the sort's
   comparisons off the store's scattered heap. *)
let pad = -2

(* [rows] flattened, with the width *)
let flatten (rows : int array array) =
  let width = Array.fold_left (fun w key -> max w (Array.length key)) 1 rows in
  let keys = Array.make (Array.length rows * width) pad in
  Array.iteri (fun i key -> Array.blit key 0 keys (i * width) (Array.length key)) rows;
  (keys, width)

(* [0 .. n-1] ordered by their rows in [keys]: a radix sort, one stable
   counting pass per column from the last to the first. Cells are ids
   (or [pad]/[-1]), so a pass costs the rows plus the id range, where a
   comparison sort would cost ~15 row comparisons per row. *)
let sort_keyed (keys : int array) ~width n =
  let top = ref pad in
  Array.iter (fun v -> if v > !top then top := v) keys;
  let top = !top in
  let count = Array.make (top - pad + 2) 0 in
  let perm = ref (Array.init n Fun.id) and next = ref (Array.make n 0) in
  for col = width - 1 downto 0 do
    Array.fill count 0 (Array.length count) 0;
    for i = 0 to n - 1 do
      let v = keys.((i * width) + col) - pad + 1 in
      count.(v) <- count.(v) + 1
    done;
    (* [count.(v - pad)]: the first slot of value [v] *)
    for v = 1 to Array.length count - 1 do
      count.(v) <- count.(v) + count.(v - 1)
    done;
    let src = !perm and dst = !next in
    for k = 0 to n - 1 do
      let i = src.(k) in
      let v = keys.((i * width) + col) - pad in
      dst.(count.(v)) <- i;
      count.(v) <- count.(v) + 1
    done;
    perm := dst;
    next := src
  done;
  !perm

(* the cells of key row [i] from column [from], comma-separated *)
let add_key b keys ~width i ~from =
  let k = ref from in
  while !k < width && keys.((i * width) + !k) <> pad do
    if !k > from then Buffer.add_char b ',';
    add_int b keys.((i * width) + !k);
    incr k
  done

let image t =
  ensure_saturated t;
  ensure_clean t;
  let st = Engine.Index.symtab t.idx in
  (* ~60 bytes per stored fact on lubm; a close guess spares the buffer
     its doubling copies *)
  let b = Buffer.create (64 * (size t + 64)) in
  Buffer.add_string b "{\"schema\":";
  Obs.Json.add_string b image_schema;
  Buffer.add_string b ",\"version\":";
  add_int b image_version;
  Buffer.add_string b ",\"level\":";
  add_int b t.level;
  Buffer.add_string b ",\"null_count\":";
  add_int b (Term.null_count ());
  Buffer.add_string b ",\"counters\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Obs.Json.add_string b k;
      Buffer.add_char b ':';
      add_int b v)
    (Obs.Metrics.counters (metrics t));
  (* interning order is load-bearing: ids index these two lists *)
  Buffer.add_string b "},\"syms\":[";
  for id = 0 to Engine.Symtab.size st - 1 do
    if id > 0 then Buffer.add_char b ',';
    match Engine.Symtab.extern st id with
    | Term.Named s -> Obs.Json.add_string b s
    | Term.Null n ->
        Buffer.add_string b "{\"n\":";
        add_int b n;
        Buffer.add_char b '}'
  done;
  Buffer.add_string b "],\"preds\":[";
  for pid = 0 to Engine.Symtab.pred_count st - 1 do
    if pid > 0 then Buffer.add_char b ',';
    Obs.Json.add_string b (Engine.Symtab.extern_pred st pid)
  done;
  (* storage order is load-bearing: rows [pid,level,c1,…,cn] *)
  Buffer.add_string b "],\"facts\":[";
  let first = ref true in
  Engine.Index.iter_rows t.idx (fun pid level cells ->
      if !first then first := false else Buffer.add_char b ',';
      Buffer.add_char b '[';
      add_int b pid;
      Buffer.add_char b ',';
      add_int b level;
      add_cells b cells;
      Buffer.add_char b ']');
  (* base facts [pid,c1,…,cn], ordered by that interned key *)
  Buffer.add_string b "],\"base\":[";
  let base = Array.of_list (Key_table.fold (fun key () acc -> key :: acc) t.base []) in
  let keys, width = flatten base in
  Array.iteri
    (fun n i ->
      if n > 0 then Buffer.add_char b ',';
      Buffer.add_char b '[';
      add_key b keys ~width i ~from:0;
      Buffer.add_char b ']')
    (sort_keyed keys ~width (Array.length base));
  (* live derivations [rule,[key ids],[body facts],[head facts]], ordered
     by interned trigger key [rule,id or -1 per body variable] *)
  Buffer.add_string b "],\"ledger\":[";
  let ledger = Array.of_list (Key_table.fold (fun _ d acc -> d :: acc) t.fired []) in
  let keys, width = flatten (Array.map (fun d -> d.d_key) ledger) in
  Array.iteri
    (fun n i ->
      let d = ledger.(i) in
      if n > 0 then Buffer.add_char b ',';
      Buffer.add_char b '[';
      add_int b keys.(i * width);
      Buffer.add_string b ",[";
      add_key b keys ~width i ~from:1;
      Buffer.add_string b "],[";
      add_rows b d.d_body;
      Buffer.add_string b "],[";
      add_rows b d.d_outs;
      Buffer.add_string b "]]")
    (sort_keyed keys ~width (Array.length ledger));
  Buffer.add_string b "]}";
  Buffer.contents b

(* -- decoding: a scanner over the layout [image] writes --------------- *)

exception Bad_image of string

let of_image sigma s =
  let n = String.length s in
  let pos = ref 0 in
  let refuse msg = raise (Bad_image ("incr: " ^ msg)) in
  let fail msg = refuse (Printf.sprintf "bad image at offset %d: %s" !pos msg) in
  let peek () =
    while
      !pos < n && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done;
    if !pos < n then s.[!pos] else '\000'
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let int () =
    let neg = peek () = '-' in
    if neg then incr pos;
    let start = !pos and v = ref 0 in
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
      v := (!v * 10) + Char.code s.[!pos] - 48;
      incr pos
    done;
    if !pos = start || !pos - start > 18 then fail "bad integer";
    if neg then - !v else !v
  in
  let str () =
    ignore (peek ());
    match Obs.Json.string_at s !pos with
    | Ok (v, next) ->
        pos := next;
        v
    | Error e -> fail e
  in
  let field name =
    if str () <> name then fail (Printf.sprintf "expected field %S" name);
    expect ':'
  in
  let next_field name =
    expect ',';
    field name
  in
  (* the elements of an array, [f] reading each *)
  let items f =
    expect '[';
    if peek () = ']' then incr pos
    else begin
      f ();
      while peek () = ',' do
        incr pos;
        f ()
      done;
      expect ']'
    end
  in
  let idx = Engine.Index.create () in
  let st = Engine.Index.symtab idx in
  let check_sym id =
    if id < 0 || id >= Engine.Symtab.size st then fail "unknown symbol id"
  in
  (* the rest of a row [pid,c1,…,cn], its pid already read, as a fact
     key; cells gather in [cells], which grows *)
  let cells = ref (Array.make 16 0) in
  let key_of pid =
    if pid < 0 || pid >= Engine.Symtab.pred_count st then
      fail "unknown predicate id";
    !cells.(0) <- pid;
    let n = ref 1 in
    while peek () = ',' do
      incr pos;
      let c = int () in
      check_sym c;
      if !n = Array.length !cells then begin
        let a = Array.make (2 * !n) 0 in
        Array.blit !cells 0 a 0 !n;
        cells := a
      end;
      !cells.(!n) <- c;
      incr n
    done;
    expect ']';
    Array.sub !cells 0 !n
  in
  let row () =
    expect '[';
    key_of (int ())
  in
  let rows () =
    let acc = ref [] in
    items (fun () -> acc := row () :: !acc);
    List.rev !acc
  in
  try
    expect '{';
    field "schema";
    let schema = str () in
    if schema <> image_schema then
      refuse (Printf.sprintf "unknown image schema %S" schema);
    next_field "version";
    let version = int () in
    if version <> image_version then
      refuse (Printf.sprintf "unsupported image version %d" version);
    next_field "level";
    let level = int () in
    next_field "null_count";
    let null_count = int () in
    next_field "counters";
    let counters = ref [] in
    expect '{';
    if peek () = '}' then incr pos
    else begin
      let counter () =
        let k = str () in
        expect ':';
        counters := (k, int ()) :: !counters
      in
      counter ();
      while peek () = ',' do
        incr pos;
        counter ()
      done;
      expect '}'
    end;
    next_field "syms";
    items (fun () ->
        let c =
          if peek () = '{' then begin
            incr pos;
            field "n";
            let i = int () in
            expect '}';
            Term.Null i
          end
          else Term.Named (str ())
        in
        let id = Engine.Symtab.intern st c in
        if id <> Engine.Symtab.size st - 1 then fail "duplicate symbol");
    next_field "preds";
    items (fun () ->
        let pid = Engine.Symtab.intern_pred st (str ()) in
        if pid <> Engine.Symtab.pred_count st - 1 then fail "duplicate predicate");
    next_field "facts";
    items (fun () ->
        expect '[';
        let pid = int () in
        expect ',';
        let level = int () in
        let key = key_of pid in
        if not (Engine.Index.insert_key idx key ~level) then fail "duplicate fact");
    next_field "base";
    (* every table below holds at most about one entry per stored fact *)
    let stored = Engine.Index.size idx in
    let base = Key_table.create stored in
    items (fun () -> Key_table.replace base (row ()) ());
    next_field "ledger";
    let facts = Key_table.create stored and fired = Key_table.create stored in
    items (fun () ->
        expect '[';
        let rule = int () in
        expect ',';
        let key = ref [] in
        items (fun () ->
            let id = int () in
            if id >= 0 then check_sym id;
            key := id :: !key);
        expect ',';
        let body = rows () in
        expect ',';
        let outs = rows () in
        expect ']';
        file ~facts ~fired
          { d_key = Array.of_list (rule :: List.rev !key); d_body = body;
            d_outs = outs; d_live = true });
    expect '}';
    ignore (peek ());
    if !pos < n then fail "trailing bytes";
    Term.set_null_count null_count;
    let m = Engine.Index.metrics idx in
    (* re-seed every counter to the image's total, cancelling the
       rebuild's own increments (the inserts above bumped
       [index.inserts] etc.) — same trick as [Saturate.resume] *)
    let names =
      List.sort_uniq String.compare
        (List.map fst !counters @ List.map fst (Obs.Metrics.counters m))
    in
    List.iter
      (fun name ->
        let saved =
          match List.assoc_opt name !counters with Some v -> v | None -> 0
        in
        let c = Obs.Metrics.counter m name in
        Obs.Metrics.add c (saved - Obs.Metrics.value c))
      names;
    Ok (assemble sigma ~idx ~base ~facts ~fired ~level ~sat:true)
  with Bad_image msg -> Error msg

let report ?(name = "incr") ?span t =
  let rep = Obs.Report.create ~metrics:(metrics t) ?span name in
  Obs.Report.add_field rep "saturated" (Obs.Json.Bool t.sat);
  Obs.Report.add_field rep "facts" (Obs.Json.Int (size t));
  Obs.Report.add_field rep "base_facts" (Obs.Json.Int (base_size t));
  rep
