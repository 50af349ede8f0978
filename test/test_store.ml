(* Cross-engine equivalence harness for the fact-store substrate.

   The store under [lib/engine] is the load-bearing representation four
   consumers share (Chase, Enumerate, Incr, Resil); this suite pins its
   *observable* behaviour so the representation can change underneath
   without anything noticing. The contract, over random guarded
   programs × random databases, is byte-identity across the [family] of
   engines below — today the indexed engine alone, so each family
   property checks that a rerun reproduces the first run byte for byte:

   - fresh chase: facts with their exact null ids and Lemma A.1
     s-levels, every clean-boundary checkpoint's bytes, the counter
     stats (up to the timing histograms) and the enumerated answer sets;
   - resume: continuing any checkpointed boundary;
   - serve: a maintained store (initial chase, then a mutation log)
     holds byte-identical facts, effects, checkpoint and counters;
   - Naive agrees with the family up to null renaming, and exactly on
     answer sets (answers are null-free).

   The fixed-oracle cases additionally embed literals produced by the
   pre-columnar hash-of-lists store, so a representation change that
   drifts any observable fails here before it reaches CI's golden
   sweep. *)

open Relational
module Chase = Tgds.Chase

let check = Alcotest.(check bool)
let v = Generators.v
let atom = Generators.atom
let fact = Generators.fact
let tgd = Generators.tgd

let cut_at_histograms = Generators.cut_at_histograms

let family = [ `Indexed ]

(* ------------------------------------------------------------------ *)
(* Fresh chase: everything observable about one budgeted run            *)
(* ------------------------------------------------------------------ *)

(* Facts with null ids and s-levels, saturation/outcome, every
   clean-boundary checkpoint serialised (engine field normalised — it
   names the engine family by design), the stats report up to the
   timing tail, and the answer sets of the fixed query pool. *)
let chase_observables ~engine ~policy sigma db =
  Term.reset_nulls ();
  let snaps = ref [] in
  let r =
    Chase.run ~engine ~policy ~budget:(Generators.resil_budget ())
      ~on_pass:(fun ~level:_ ~saturated:_ take -> snaps := take () :: !snaps)
      sigma db
  in
  let stats =
    cut_at_histograms
      (Obs.Json.to_string (Obs.Report.to_json (Chase.report ~name:"store" r)))
  in
  let trace =
    List.rev_map
      (fun s ->
        Obs.Json.to_string
          (Resil.Checkpoint.to_json { s with Chase.snap_engine = `Indexed }))
      !snaps
  in
  let answers =
    List.map
      (fun q ->
        (Engine.Enumerate.ucq ~universe:(Instance.dom db) (Chase.index r) q)
          .Engine.Enumerate.answers)
      Generators.queries
  in
  ( List.sort Stdlib.compare (Generators.facts_levels r),
    Chase.saturated r,
    Chase.max_level r,
    Chase.outcome r,
    stats,
    trace,
    answers )

let print_case (sigma, db, policy) =
  Fmt.str "%s policy=%s"
    (Generators.print_sigma_db (sigma, db))
    (match policy with
    | Chase.Oblivious -> "oblivious"
    | Chase.Restricted -> "restricted")

let arb_case =
  QCheck.make ~print:print_case
    QCheck.Gen.(
      let* sigma = Generators.gen_sigma
      and* db = Generators.gen_db
      and* policy = Generators.gen_policy in
      return (sigma, db, policy))

let prop_fresh_chase_byte_identical =
  QCheck.Test.make
    ~name:
      "store: fresh chase byte-identical across the family (facts, levels, \
       checkpoints, stats, answers)"
    ~count:50 arb_case (fun (sigma, db, policy) ->
      let base = chase_observables ~engine:`Indexed ~policy sigma db in
      List.for_all
        (fun engine -> chase_observables ~engine ~policy sigma db = base)
        family)

let prop_naive_equivalent =
  QCheck.Test.make
    ~name:"store: Naive ≍ family up to null renaming, exactly on answers"
    ~count:50 arb_case (fun (sigma, db, policy) ->
      let budget () = Generators.resil_budget () in
      Term.reset_nulls ();
      let naive = Chase.run ~engine:`Naive ~policy ~budget:(budget ()) sigma db in
      let naive_answers =
        List.map
          (fun q ->
            (Engine.Enumerate.ucq ~universe:(Instance.dom db)
               (Chase.index naive) q)
              .Engine.Enumerate.answers)
          Generators.queries
      in
      Term.reset_nulls ();
      let idx = Chase.run ~engine:`Indexed ~policy ~budget:(budget ()) sigma db in
      let idx_answers =
        List.map
          (fun q ->
            (Engine.Enumerate.ucq ~universe:(Instance.dom db) (Chase.index idx)
               q)
              .Engine.Enumerate.answers)
          Generators.queries
      in
      Generators.results_equivalent naive idx && naive_answers = idx_answers)

(* ------------------------------------------------------------------ *)
(* Resume: any boundary, any engine of the family                       *)
(* ------------------------------------------------------------------ *)

let resume_observables ~engine sigma snap =
  let r =
    Chase.resume ~engine ~budget:(Generators.resil_budget ()) sigma snap
  in
  let stats =
    cut_at_histograms
      (Obs.Json.to_string (Obs.Report.to_json (Chase.report ~name:"store" r)))
  in
  ( List.sort Stdlib.compare (Generators.facts_levels r),
    Chase.saturated r,
    Chase.max_level r,
    Chase.outcome r,
    stats )

let arb_resume_case =
  QCheck.make
    ~print:(fun (case, pick) -> Fmt.str "%s pick=%d" (print_case case) pick)
    QCheck.Gen.(
      let* case = QCheck.gen arb_case and* pick = int_range 0 1000 in
      return (case, pick))

let prop_resume_byte_identical =
  QCheck.Test.make
    ~name:"store: resume from any boundary byte-identical across the family"
    ~count:40 arb_resume_case (fun ((sigma, db, policy), pick) ->
      let snaps = Generators.chase_snapshots ~engine:`Indexed ~policy sigma db in
      let snap = List.nth snaps (pick mod List.length snaps) in
      let base = resume_observables ~engine:`Indexed sigma snap in
      List.for_all
        (fun engine -> resume_observables ~engine sigma snap = base)
        family)

(* ------------------------------------------------------------------ *)
(* Serve: a maintained store under a mutation log                       *)
(* ------------------------------------------------------------------ *)

(* Weakly-acyclic guarded sigma with existentials: the oblivious chase
   always terminates, so the maintained store accepts mutations, and
   nulls exercise the delete cascade. *)
let wa_sigma =
  [
    tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ];
    tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "T" [ v "y"; v "x" ] ];
    tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "B" [ v "x" ] ];
    tgd [ atom "B" [ v "x" ] ] [ atom "U" [ v "x"; v "z" ] ];
  ]

let gen_wa_fact =
  QCheck.Gen.(
    let gc = map (List.nth [ "a"; "b"; "c" ]) (int_range 0 2) in
    let* p = int_range 0 3 in
    match p with
    | 0 ->
        let* a = gc in
        return (fact "A" [ a ])
    | 1 ->
        let* a = gc in
        return (fact "B" [ a ])
    | 2 ->
        let* a = gc and* b = gc in
        return (fact "S" [ a; b ])
    | _ ->
        let* a = gc and* b = gc in
        return (fact "T" [ a; b ]))

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 0 6)
      (map
         (fun (add, f) -> if add then Incr.Insert f else Incr.Delete f)
         (pair bool gen_wa_fact)))

let print_op = function
  | Incr.Insert f -> Fmt.str "+%a" Fact.pp f
  | Incr.Delete f -> Fmt.str "-%a" Fact.pp f

let serve_observables ~engine db ops =
  Term.reset_nulls ();
  let t = Incr.create ~engine wa_sigma db in
  let effects = List.map (fun op -> Incr.apply t op) ops in
  let facts = List.sort Stdlib.compare (Instance.facts (Incr.instance t)) in
  let ck = Obs.Json.to_string (Resil.Checkpoint.to_json (Incr.checkpoint t)) in
  let counters =
    List.sort Stdlib.compare (Obs.Metrics.counters (Incr.metrics t))
  in
  (facts, effects, ck, counters)

let arb_serve_case =
  QCheck.make
    ~print:(fun (db, ops) ->
      Fmt.str "D=%a ops=[%s]" Instance.pp db
        (String.concat "; " (List.map print_op ops)))
    QCheck.Gen.(
      let* db = Generators.gen_db and* ops = gen_ops in
      return (db, ops))

let prop_serve_byte_identical =
  QCheck.Test.make
    ~name:
      "store: serve (maintained store) byte-identical across the family \
       (facts, effects, checkpoint, counters)"
    ~count:40 arb_serve_case (fun (db, ops) ->
      let base = serve_observables ~engine:`Indexed db ops in
      List.for_all
        (fun engine -> serve_observables ~engine db ops = base)
        family)

(* ------------------------------------------------------------------ *)
(* Fixed oracles: literals pinned against the pre-columnar store        *)
(* ------------------------------------------------------------------ *)

(* Σ = {A(x) → ∃y S(x,y); S(x,y) → A(y)}: non-terminating, cut by the
   level budget — exercises null invention at every level. *)
let unit_sigma =
  [
    tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ];
    tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "A" [ v "y" ] ];
  ]

let unit_db = Instance.of_facts [ fact "A" [ "a" ] ]

let render_facts fl =
  String.concat "\n"
    (List.map (fun (f, l) -> Fmt.str "%d %a" l Fact.pp f) fl)

let pinned ~engine ~policy sigma db =
  let fl, saturated, max_level, _, stats, trace, _ =
    chase_observables ~engine ~policy sigma db
  in
  ( Fmt.str "saturated=%b max_level=%d\n%s" saturated max_level
      (render_facts fl),
    (match List.rev trace with last :: _ -> last | [] -> ""),
    stats )

(* The expected literals below were produced by the hash-of-lists store
   (PR 6 tree) and must never drift: null ids, levels, checkpoint bytes
   and counters are all representation-observable. *)
let test_pinned_oblivious () =
  let got_facts, got_ck, got_stats =
    pinned ~engine:`Indexed ~policy:Chase.Oblivious unit_sigma unit_db
  in
  Alcotest.(check string) "facts/levels literal"
    "saturated=false max_level=6\n\
     0 A(a)\n\
     2 A(_:n1)\n\
     4 A(_:n2)\n\
     6 A(_:n3)\n\
     1 S(a,_:n1)\n\
     3 S(_:n1,_:n2)\n\
     5 S(_:n2,_:n3)"
    got_facts;
  Alcotest.(check string) "final checkpoint literal"
    {|{"schema":"guarded-chase-checkpoint","version":1,"engine":"indexed","policy":"oblivious","level":6,"saturated":false,"null_count":3,"triggers_fired":6,"triggers_dismissed":0,"counters":{"index.duplicates":0,"index.inserts":7,"index.probes":0,"index.removes":0,"joiner.backtracks":0,"joiner.candidates":6},"facts":[{"p":"A","l":0,"a":["a"]},{"p":"S","l":1,"a":["a",{"n":1}]},{"p":"A","l":2,"a":[{"n":1}]},{"p":"S","l":3,"a":[{"n":1},{"n":2}]},{"p":"A","l":4,"a":[{"n":2}]},{"p":"S","l":5,"a":[{"n":2},{"n":3}]},{"p":"A","l":6,"a":[{"n":3}]}]}|}
    got_ck;
  Alcotest.(check string) "stats literal"
    {|{"name":"store","outcome":{"status":"partial","reason":"max_levels","limit":6},"saturated":false,"max_level":6,"facts":7,"facts_per_level":[1,1,1,1,1,1],"triggers_fired":6,"triggers_dismissed":0,"counters":{"index.duplicates":0,"index.inserts":7,"index.probes":0,"index.removes":0,"joiner.backtracks":0,"joiner.candidates":6}|}
    got_stats

let guarded_sigma =
  [
    tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ];
    tgd
      [ atom "S" [ v "x"; v "y" ]; atom "A" [ v "x" ] ]
      [ atom "B" [ v "x" ] ];
    tgd [ atom "B" [ v "x" ] ] [ atom "T" [ v "x"; v "z" ] ];
  ]

let guarded_db = Instance.of_facts [ fact "A" [ "a" ]; fact "S" [ "a"; "b" ] ]

let test_pinned_restricted () =
  let got_facts, got_ck, got_stats =
    pinned ~engine:`Indexed ~policy:Chase.Restricted guarded_sigma guarded_db
  in
  Alcotest.(check string) "facts/levels literal"
    "saturated=true max_level=2\n0 A(a)\n1 B(a)\n0 S(a,b)\n2 T(a,_:n1)"
    got_facts;
  Alcotest.(check string) "final checkpoint literal"
    {|{"schema":"guarded-chase-checkpoint","version":1,"engine":"indexed","policy":"restricted","level":2,"saturated":true,"null_count":1,"triggers_fired":2,"triggers_dismissed":1,"counters":{"index.duplicates":0,"index.inserts":4,"index.probes":5,"index.removes":0,"joiner.backtracks":0,"joiner.candidates":7},"facts":[{"p":"A","l":0,"a":["a"]},{"p":"S","l":0,"a":["a","b"]},{"p":"B","l":1,"a":["a"]},{"p":"T","l":2,"a":["a",{"n":1}]}]}|}
    got_ck;
  Alcotest.(check string) "stats literal"
    {|{"name":"store","outcome":{"status":"complete"},"saturated":true,"max_level":2,"facts":4,"facts_per_level":[1,1],"triggers_fired":2,"triggers_dismissed":1,"counters":{"index.duplicates":0,"index.inserts":4,"index.probes":5,"index.removes":0,"joiner.backtracks":0,"joiner.candidates":7}|}
    got_stats

(* ------------------------------------------------------------------ *)
(* Fixed oracle at scale: lubm-20 plus a four-rule join chain           *)
(* ------------------------------------------------------------------ *)

(* The example-sized literals above never reach a multi-level delta, a
   join pivot or null numbering beyond a handful of ids. This program
   does: lubm at 20 universities (3,080 base facts, existential rules
   inventing nulls at three levels) plus a 200-edge [e]-path carrying
   the guarded-full join chain [e(X,Y) -> p0(X)], [e(X,Y), pK(X) ->
   pK+1(Y)] for K = 0..3. Its digests were produced by the sequential
   engine on the Fact.t-keyed store and pin storage order with null ids,
   s-levels, counters, trigger totals and a maintained store's image
   bytes. *)
let scale_sigma, scale_db =
  let sigma, db = Guarded_core.Workload.lubm ~universities:20 () in
  let chain =
    tgd [ atom "e" [ v "X"; v "Y" ] ] [ atom "p0" [ v "X" ] ]
    :: List.init 4 (fun k ->
           tgd
             [ atom "e" [ v "X"; v "Y" ]; atom (Fmt.str "p%d" k) [ v "X" ] ]
             [ atom (Fmt.str "p%d" (k + 1)) [ v "Y" ] ])
  in
  let edge i j = fact "e" [ Fmt.str "a%d" i; Fmt.str "a%d" j ] in
  ( sigma @ chain,
    List.fold_left
      (fun acc i -> Instance.add_fact (edge i (i + 1)) acc)
      db (List.init 200 Fun.id) )

(* The store's facts in storage order — predicates in intern order, each
   relation oldest-first — rendered with their null ids. *)
let storage_order idx =
  let st = Engine.Index.symtab idx in
  List.concat_map
    (fun pid ->
      let p = Engine.Symtab.extern_pred st pid in
      List.rev_map (Fact.make p) (Engine.Index.tuples_of idx p))
    (List.init (Engine.Symtab.pred_count st) Fun.id)

let digest s = Digest.to_hex (Digest.string s)

let scale_chase ~policy =
  Term.reset_nulls ();
  let r = Chase.run ~engine:`Indexed ~policy scale_sigma scale_db in
  let er = Option.get (Chase.engine_result r) in
  let idx = Chase.index r in
  let counters =
    String.concat ","
      (List.map
         (fun (k, n) -> Fmt.str "%s=%d" k n)
         (Obs.Metrics.counters (Engine.Index.metrics idx)))
  in
  let facts = storage_order idx in
  let levels =
    String.concat "\n"
      (List.map
         (fun f ->
           Fmt.str "%d %a" (Option.value ~default:(-1) (Chase.level r f)) Fact.pp f)
         facts)
  in
  ( List.length facts,
    digest (String.concat "\n" (List.map (Fmt.str "%a" Fact.pp) facts)),
    digest levels,
    Fmt.str "fired=%d dismissed=%d max_level=%d saturated=%b per_level=%s %s"
      er.Engine.Saturate.triggers_fired er.Engine.Saturate.triggers_dismissed
      (Chase.max_level r) (Chase.saturated r)
      (String.concat ";" (List.map string_of_int (Chase.facts_per_level r)))
      counters )

let test_pinned_scale_oblivious () =
  let n, facts, levels, stats = scale_chase ~policy:Chase.Oblivious in
  Alcotest.(check int) "fact count" 4274 n;
  Alcotest.(check string) "storage order digest"
    "43c527338a4dbdbd8030fbcb5f5e7e58" facts;
  Alcotest.(check string) "s-level digest"
    "e912c4555e1d6c1782da4f47eb95538d" levels;
  Alcotest.(check string) "counters"
    "fired=3714 dismissed=0 max_level=5 saturated=true \
     per_level=960;840;639;518;197 \
     index.duplicates=560,index.inserts=4274,index.probes=1597,index.removes=0,joiner.backtracks=0,joiner.candidates=5311"
    stats

let test_pinned_scale_restricted () =
  let n, facts, levels, stats = scale_chase ~policy:Chase.Restricted in
  Alcotest.(check int) "fact count" 3314 n;
  Alcotest.(check string) "storage order digest"
    "da70794e77e24c755205bf811677554f" facts;
  Alcotest.(check string) "s-level digest"
    "fe978f8de9fedfb7cfb58b1d6eeb71d7" levels;
  Alcotest.(check string) "counters"
    "fired=2314 dismissed=560 max_level=5 saturated=true \
     per_level=720;600;399;278;197 \
     index.duplicates=120,index.inserts=3314,index.probes=4471,index.removes=0,joiner.backtracks=0,joiner.candidates=5031"
    stats

(* A fixed 20-mutation log over the maintained store: chain cuts and
   repairs (multi-level over-delete and re-derive), lubm base deletes
   whose facts stay derivable, fresh students whose rules invent nulls,
   and two no-ops. *)
let scale_log =
  let e i j = fact "e" [ Fmt.str "a%d" i; Fmt.str "a%d" j ] in
  Incr.
    [
      Delete (e 50 51);
      Insert (e 200 201);
      Delete (fact "Prof" [ "prof_0_0_0" ]);
      Insert (fact "Student" [ "student_new_0" ]);
      Insert (fact "MemberOf" [ "student_new_0"; "dept_0_0" ]);
      Delete (fact "Dept" [ "dept_1_1" ]);
      Insert (e 50 51);
      Delete (e 0 1);
      Insert (e 900 0);
      Insert (e 0 1);
      Insert (fact "Teaches" [ "prof_3_1_2"; "course_3_1_2" ]);
      Delete (fact "Teaches" [ "prof_3_1_2"; "course_3_1_2" ]);
      Delete (fact "Student" [ "student_19_1_4" ]);
      Insert (fact "Prof" [ "prof_new_0" ]);
      Delete (fact "Takes" [ "student_7_0_2"; "course_7_0_0" ]);
      Insert (e 120 7);
      Delete (e 199 200);
      Delete (fact "Student" [ "student_nobody" ]);
      Insert (fact "Course" [ "course_new_0" ]);
      Delete (e 120 7);
    ]

let test_pinned_scale_image () =
  Term.reset_nulls ();
  let t = Incr.create scale_sigma scale_db in
  let effects =
    List.map
      (fun op ->
        let e = Incr.apply t op in
        Fmt.str "%b/%d/%d/%d/%d" e.Incr.e_noop e.Incr.e_repaired
          e.Incr.e_overdeleted e.Incr.e_rederived e.Incr.e_deleted)
      scale_log
  in
  Alcotest.(check string) "effects"
    "false/0/12/0/12 false/6/0/0/0 false/0/6/1/5 false/7/0/0/0 false/1/0/0/0 \
     false/0/1/1/0 false/12/0/0/0 false/0/6/0/6 false/3/0/0/0 false/9/0/0/0 \
     true/0/0/0/0 false/0/5/1/4 false/0/7/0/7 false/6/0/0/0 false/2/4/1/3 \
     false/1/0/0/0 false/0/9/0/9 true/0/0/0/0 false/3/0/0/0 false/10/16/5/1"
    (String.concat " " effects);
  let im = Incr.image t in
  Alcotest.(check string) "image digest"
    "0d0548734d0177f4fe7e820eb1a35aaf"
    (digest im);
  (* canonical s-levels, support counts and the rebuild, at scale *)
  let ck = Incr.checkpoint t in
  Alcotest.(check string) "checkpoint digest" "718ff8c072d878aa0b438221141ed99a"
    (digest
       (String.concat "\n"
          (List.map
             (fun (f, l) -> Fmt.str "%a@%d" Fact.pp f l)
             ck.Chase.snap_facts)));
  Alcotest.(check int) "support-count sum" 3714
    (Instance.fold (fun f acc -> acc + Incr.support_count t f) (Incr.instance t) 0);
  Alcotest.(check bool) "image round-trips at scale" true
    (String.equal (Incr.image (Result.get_ok (Incr.of_image scale_sigma im))) im)

(* ------------------------------------------------------------------ *)
(* Store-level semantics the consumers rely on                          *)
(* ------------------------------------------------------------------ *)

(* Posting lists are most-recently-inserted-first, and [Index.remove]
   prunes them in place preserving that order — the discovery order of
   the chase (hence null ids) hangs off this. *)
let test_posting_order_and_remove () =
  let open Engine in
  let f cs = Fact.make "S" (List.map (fun c -> Term.Named c) cs) in
  let idx = Index.create () in
  List.iter
    (fun t -> ignore (Index.insert (f t) idx))
    [ [ "a"; "b" ]; [ "c"; "b" ]; [ "d"; "b" ]; [ "d"; "e" ] ];
  let tuples l =
    List.map (List.map (function Term.Named s -> s | _ -> "?")) l
  in
  Alcotest.(check (list (list string)))
    "posting (S,1,b) most-recent-first"
    [ [ "d"; "b" ]; [ "c"; "b" ]; [ "a"; "b" ] ]
    (tuples (Index.tuples_at idx "S" 1 (Term.Named "b")));
  Alcotest.(check (list (list string)))
    "relation scan most-recent-first"
    [ [ "d"; "e" ]; [ "d"; "b" ]; [ "c"; "b" ]; [ "a"; "b" ] ]
    (tuples (Index.tuples_of idx "S"));
  check "remove present" true (Index.remove (f [ "c"; "b" ]) idx);
  check "remove absent" false (Index.remove (f [ "c"; "b" ]) idx);
  Alcotest.(check (list (list string)))
    "posting pruned in place, order kept"
    [ [ "d"; "b" ]; [ "a"; "b" ] ]
    (tuples (Index.tuples_at idx "S" 1 (Term.Named "b")));
  Alcotest.(check int)
    "count follows" 2
    (Index.count_at idx "S" 1 (Term.Named "b"));
  (* re-insert lands at the front again *)
  ignore (Index.insert (f [ "c"; "b" ]) idx);
  Alcotest.(check (list (list string)))
    "re-insert is most recent"
    [ [ "c"; "b" ]; [ "d"; "b" ]; [ "a"; "b" ] ]
    (tuples (Index.tuples_at idx "S" 1 (Term.Named "b")));
  Alcotest.(check int) "size" 4 (Index.size idx)

(* Regression: membership buckets must spread. Partitioning the table
   into shards picked by the hash's low bits, each a table bucketed by
   the low bits of that same hash, left a shard using 1/16 of its
   buckets: over 122k fact keys the mean chain was about 30 and the
   longest near 50. One table hashing a mix of every cell keeps both
   near the load factor. *)
let test_membership_spread () =
  let idx = Engine.Index.create () in
  for i = 0 to 121_999 do
    ignore (Engine.Index.insert_key idx [| i mod 7; i; i + 1 |] ~level:0)
  done;
  let s = Engine.Index.membership_stats idx in
  Alcotest.(check int) "every key stored" 122_000 s.Hashtbl.num_bindings;
  let used = s.Hashtbl.num_buckets - s.Hashtbl.bucket_histogram.(0) in
  let mean = float_of_int s.Hashtbl.num_bindings /. float_of_int used in
  check (Fmt.str "mean chain over used buckets %.2f <= 4" mean) true (mean <= 4.);
  check
    (Fmt.str "longest chain %d <= 16" s.Hashtbl.max_bucket_length)
    true
    (s.Hashtbl.max_bucket_length <= 16)

(* Regression (mirrors the PR 5 Homomorphism memory-stability shape):
   repeated insert/delete cycles over a fixed fact set in a maintained
   store must not grow the store's capacity — posting lists and any
   future columnar backing have to reclaim or reuse the slots. The
   sigma is existential-free so the churn is pure store traffic (the
   global null supply is out of scope here). *)
let test_serve_capacity_stable () =
  let sigma =
    [
      tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "A" [ v "y" ] ];
      tgd [ atom "A" [ v "x" ] ] [ atom "B" [ v "x" ] ];
    ]
  in
  let db = Instance.of_facts [ fact "S" [ "a"; "b" ] ] in
  Term.reset_nulls ();
  let t = Incr.create sigma db in
  let churn =
    [ fact "S" [ "b"; "c" ]; fact "S" [ "c"; "a" ]; fact "A" [ "c" ] ]
  in
  let cycle () =
    List.iter (fun f -> ignore (Incr.insert t f)) churn;
    List.iter (fun f -> ignore (Incr.delete t f)) churn
  in
  for _ = 1 to 200 do
    cycle ()
  done;
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let cap0 = Engine.Index.capacity_words (Incr.index t) in
  for _ = 1 to 2000 do
    cycle ()
  done;
  Gc.compact ();
  let live1 = (Gc.stat ()).Gc.live_words in
  (* 2000 further cycles insert and retract the same 3 base facts (and
     their consequences); a store that fails to reclaim slots retains
     thousands of words per 1000 cycles *)
  check "insert/delete churn leaves no residue" true (live1 - live0 < 8_000);
  (* and the columnar backing itself must not grow: freed row slots are
     reused, emptied posting vectors dropped *)
  Alcotest.(check int)
    "store capacity unchanged" cap0
    (Engine.Index.capacity_words (Incr.index t))

(* ------------------------------------------------------------------ *)
(* Symtab / Vec units                                                   *)
(* ------------------------------------------------------------------ *)

(* Regrow corner: push across several doublings of the Bigarray backing
   (starting from the minimum capacity), then exercise the order-
   preserving remove and pop at the boundary. *)
let test_vec_regrow () =
  let open Engine in
  let v = Vec.create ~capacity:1 () in
  for i = 0 to 9999 do
    Vec.push v (i * 3)
  done;
  Alcotest.(check int) "length" 10_000 (Vec.length v);
  check "capacity >= length" true (Vec.capacity v >= 10_000);
  check "values survive regrow" true
    (Vec.get v 0 = 0 && Vec.get v 4095 = 4095 * 3 && Vec.get v 4096 = 4096 * 3
   && Vec.get v 9999 = 9999 * 3);
  (* remove exactly at the last-doubling boundary *)
  check "remove boundary value" true (Vec.remove_value v (4096 * 3));
  check "remove absent value" false (Vec.remove_value v (4096 * 3));
  Alcotest.(check int) "shifted left" (4097 * 3) (Vec.get v 4096);
  Alcotest.(check int) "pop returns last" (9999 * 3) (Vec.pop v);
  Alcotest.(check int) "length after" 9_998 (Vec.length v)

(* Interning round-trips, and ids are dense in first-seen order. *)
let test_symtab_roundtrip () =
  let open Engine in
  let named = List.init 50 (fun i -> Term.Named (Printf.sprintf "c%02d" i)) in
  let nulls = List.init 50 (fun i -> Term.Null (i + 1)) in
  let everything = named @ nulls in
  let t = Symtab.create () in
  List.iter (fun c -> ignore (Symtab.intern t c)) everything;
  check "round-trip" true
    (List.for_all (fun c -> Symtab.extern t (Symtab.intern t c) = c) everything);
  check "find agrees with intern" true
    (List.for_all (fun c -> Symtab.find t c = Some (Symtab.intern t c)) everything);
  Alcotest.(check int) "dense ids" 100 (Symtab.size t);
  check "unknown symbol" true (Symtab.find t (Term.Named "zzz") = None);
  (* null payloads far beyond the dense range force the null-table regrow *)
  let far = Term.Null 100_000 in
  let id = Symtab.intern t far in
  check "null regrow round-trip" true
    (Symtab.extern t id = far && Symtab.find t far = Some id);
  (* predicates intern in their own id space *)
  let p = Symtab.intern_pred t "Edge" in
  Alcotest.(check string) "pred round-trip" "Edge" (Symtab.extern_pred t p)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_fresh_chase_byte_identical;
      prop_naive_equivalent;
      prop_resume_byte_identical;
      prop_serve_byte_identical;
    ]

let () =
  Alcotest.run "store"
    [
      ( "oracle",
        [
          Alcotest.test_case "pinned oblivious chase" `Quick
            test_pinned_oblivious;
          Alcotest.test_case "pinned restricted chase" `Quick
            test_pinned_restricted;
          Alcotest.test_case "pinned chase at scale" `Quick
            test_pinned_scale_oblivious;
          Alcotest.test_case "pinned restricted chase at scale" `Quick
            test_pinned_scale_restricted;
          Alcotest.test_case "pinned maintained image at scale" `Quick
            test_pinned_scale_image;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "posting order and remove" `Quick
            test_posting_order_and_remove;
          Alcotest.test_case "serve capacity stable" `Quick
            test_serve_capacity_stable;
          Alcotest.test_case "membership buckets spread" `Quick
            test_membership_spread;
        ] );
      ( "units",
        [
          Alcotest.test_case "vec regrow boundary" `Quick test_vec_regrow;
          Alcotest.test_case "symtab intern/extern round-trip" `Quick
            test_symtab_roundtrip;
        ] );
      ("equivalence", qcheck_tests);
    ]
