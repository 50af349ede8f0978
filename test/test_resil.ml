(* Crash-safety suite for lib/resil and the chase's checkpoint/resume
   machinery: checkpoint JSON round-trips byte-identically, a resumed run
   is equivalent to an uninterrupted one (up to renaming of nulls invented
   after the boundary) under both policies and engines — including
   cross-engine resume, which is how the supervisor degrades — and the
   supervisor turns injected faults into retries/degradation instead of
   escaped exceptions. Generators live in Generators.

   Equivalence caveat: a [Partial Facts] cut lands mid-pass, where the set
   of triggers fired before the cut depends on enumeration order (itself
   dependent on index insertion order), so for those runs only the levels
   before the final, truncated pass are compared; runs ending at a clean
   boundary (saturation or a level cut) must agree in full. *)

open Relational
module Chase = Tgds.Chase

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let v = Generators.v
let atom = Generators.atom
let fact = Generators.fact
let tgd = Generators.tgd

(* Result comparison up to null renaming lives in Generators (shared
   with the store suite). *)
let results_equivalent = Generators.results_equivalent

(* ------------------------------------------------------------------ *)
(* Checkpoint serialisation                                             *)
(* ------------------------------------------------------------------ *)

let prop_checkpoint_roundtrip =
  QCheck.Test.make ~name:"checkpoint JSON round-trip is byte-identical"
    ~count:150 Generators.arb_checkpoint (fun s ->
      let str = Obs.Json.to_string (Resil.Checkpoint.to_json s) in
      match Obs.Json.parse str with
      | Error _ -> false
      | Ok j -> (
          match Resil.Checkpoint.of_json j with
          | Error _ -> false
          | Ok s' -> Obs.Json.to_string (Resil.Checkpoint.to_json s') = str))

let test_checkpoint_disk_roundtrip () =
  let snaps =
    Generators.chase_snapshots ~engine:`Indexed ~policy:Chase.Oblivious
      [ tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ];
        tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "A" [ v "y" ] ] ]
      (Instance.of_facts [ fact "A" [ "a" ] ])
  in
  let s = List.nth snaps (List.length snaps / 2) in
  let path = Filename.temp_file "resil_ck" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Resil.Checkpoint.save path s;
      let read () =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let first = read () in
      (match Resil.Checkpoint.load path with
      | Error e ->
          Alcotest.failf "load failed: %s" (Resil.Checkpoint.error_message e)
      | Ok s' -> Resil.Checkpoint.save path s');
      check "save → load → save is byte-identical" true (read () = first))

let test_checkpoint_rejects_bad_schema () =
  let reject s =
    match Result.bind (Obs.Json.parse s) Resil.Checkpoint.of_json with
    | Error _ -> true
    | Ok _ -> false
  in
  check "wrong schema" true
    (reject {|{"schema":"other","version":1}|});
  check "wrong version" true
    (reject {|{"schema":"guarded-chase-checkpoint","version":99}|});
  check "missing fields" true
    (reject {|{"schema":"guarded-chase-checkpoint","version":1}|})

(* ------------------------------------------------------------------ *)
(* Resume ≍ uninterrupted                                               *)
(* ------------------------------------------------------------------ *)

let gen_resume_case =
  QCheck.Gen.(
    let* sigma = Generators.gen_sigma
    and* db = Generators.gen_db
    and* engine = Generators.gen_engine
    and* policy = Generators.gen_policy
    and* pick = int_range 0 1000
    and* cross = bool in
    return (sigma, db, engine, policy, pick, cross))

let print_resume_case (sigma, db, engine, policy, pick, cross) =
  Fmt.str "%s engine=%s policy=%s pick=%d cross=%b"
    (Generators.print_sigma_db (sigma, db))
    (Generators.engine_to_string engine)
    (match policy with
    | Chase.Oblivious -> "oblivious"
    | Chase.Restricted -> "restricted")
    pick cross

let arb_resume_case = QCheck.make ~print:print_resume_case gen_resume_case

let resume_equiv (sigma, db, engine, policy, pick, cross) =
  Term.reset_nulls ();
  let snaps = ref [] in
  let full =
    Chase.run ~engine ~policy ~budget:(Generators.resil_budget ())
      ~on_pass:(fun ~level:_ ~saturated:_ take -> snaps := take () :: !snaps)
      sigma db
  in
  let snaps = Array.of_list (List.rev !snaps) in
  let s = snaps.(pick mod Array.length snaps) in
  let resume_engine =
    (* cross-engine resume covers the supervisor's degradation ladder
       and the way back up *)
    if cross then match engine with `Indexed -> `Naive | `Naive -> `Indexed
    else engine
  in
  let r =
    Chase.resume ~engine:resume_engine ~budget:(Generators.resil_budget ())
      sigma s
  in
  results_equivalent full r

let prop_resume_equiv =
  QCheck.Test.make
    ~name:"resume from any boundary ≍ uninterrupted (both policies/engines)"
    ~count:200 arb_resume_case resume_equiv

(* ------------------------------------------------------------------ *)
(* Supervisor                                                           *)
(* ------------------------------------------------------------------ *)

(* A clock advancing one second per reading, so [After_ms] triggers fire
   deterministically within a few probe hits. *)
let ticking_clock () =
  let t = ref 0. in
  fun () ->
    t := !t +. 1.;
    !t

let gen_supervised_case =
  QCheck.Gen.(
    let* sigma = Generators.gen_sigma
    and* db = Generators.gen_db
    and* policy = Generators.gen_policy
    and* plan = Generators.gen_fault_plan in
    return (sigma, db, policy, plan))

let print_supervised_case (sigma, db, policy, plan) =
  Fmt.str "%s policy=%s plan=%s"
    (Generators.print_sigma_db (sigma, db))
    (match policy with
    | Chase.Oblivious -> "oblivious"
    | Chase.Restricted -> "restricted")
    (Resil.Fault.to_string plan)

let arb_supervised_case =
  QCheck.make ~print:print_supervised_case gen_supervised_case

(* With retries 2 the supervisor grants 3 attempts per engine and the
   generated plans have ≤ 3 triggers, so some attempt always runs
   fault-free: the outcome must carry a result equivalent to the
   uninterrupted run. *)
let supervised_equiv (sigma, db, policy, plan) =
  Term.reset_nulls ();
  let base =
    Chase.run ~engine:`Indexed ~policy ~budget:(Generators.resil_budget ())
      sigma db
  in
  Term.reset_nulls ();
  match
    Resil.Supervisor.run ~engine:`Indexed ~policy
      ~budget:(Generators.resil_budget ()) ~retries:2
      ~sleep:(fun _ -> ())
      ~clock:(ticking_clock ()) ~fault_plan:plan sigma db
  with
  | Resil.Supervisor.Completed r
  | Resil.Supervisor.Recovered (r, _)
  | Resil.Supervisor.Degraded (r, _) ->
      results_equivalent base r
  | Resil.Supervisor.Failed _ -> false

let prop_supervised_equiv =
  QCheck.Test.make
    ~name:"supervised run with kills ≍ uninterrupted (both policies)"
    ~count:200 arb_supervised_case supervised_equiv

(* Σ = {A(x) → ∃y S(x,y); S(x,y) → A(y)}: non-terminating, cut by the
   level budget — a deterministic workload for the unit tests below. *)
let unit_sigma =
  [
    tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ];
    tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "A" [ v "y" ] ];
  ]

let unit_db = Instance.of_facts [ fact "A" [ "a" ] ]

let test_supervisor_degrades ~retries () =
  Term.reset_nulls ();
  let base =
    Chase.run ~engine:`Indexed ~budget:(Generators.resil_budget ()) unit_sigma
      unit_db
  in
  Term.reset_nulls ();
  (* every indexed attempt dies at its first pass; the naive engine never
     hits engine.* probes, so the degraded attempt completes *)
  let plan =
    List.init (retries + 1) (fun _ -> Resil.Fault.At_point ("engine.pass", 1))
  in
  match
    Resil.Supervisor.run ~engine:`Indexed
      ~budget:(Generators.resil_budget ()) ~retries
      ~sleep:(fun _ -> ())
      ~fault_plan:plan unit_sigma unit_db
  with
  | Resil.Supervisor.Degraded (r, log) ->
      check_int "one failed attempt per try on the indexed rung" (retries + 1)
        (List.length log);
      List.iter
        (fun a ->
          check "failed attempts ran on the indexed engine" true
            (a.Resil.Supervisor.engine = `Indexed))
        log;
      check "degraded result ≍ uninterrupted" true (results_equivalent base r)
  | _ -> Alcotest.fail "expected Degraded"

let test_supervisor_failed_is_typed () =
  (* kill both engines on every attempt: engine.pass for indexed,
     chase.pass for naive *)
  let plan =
    [
      Resil.Fault.At_point ("engine.pass", 1);
      Resil.Fault.At_point ("chase.pass", 1);
    ]
  in
  match
    Resil.Supervisor.run ~engine:`Indexed
      ~budget:(Generators.resil_budget ()) ~retries:0
      ~sleep:(fun _ -> ())
      ~fault_plan:plan unit_sigma unit_db
  with
  | Resil.Supervisor.Failed d ->
      check_int "both attempts logged" 2 (List.length d.Resil.Supervisor.attempts)
  | _ -> Alcotest.fail "expected Failed (and no escaped exception)"

let test_supervisor_backoff_sequence () =
  let sleeps = ref [] in
  let plan =
    [
      Resil.Fault.At_point ("engine.pass", 1);
      Resil.Fault.At_point ("engine.pass", 2);
      Resil.Fault.At_point ("engine.pass", 3);
    ]
  in
  (match
     Resil.Supervisor.run ~engine:`Indexed
       ~budget:(Generators.resil_budget ()) ~retries:3 ~backoff_ms:100.
       ~max_backoff_ms:250.
       ~sleep:(fun s -> sleeps := s :: !sleeps)
       ~fault_plan:plan unit_sigma unit_db
   with
  | Resil.Supervisor.Recovered (_, log) ->
      check_int "three failed attempts" 3 (List.length log)
  | _ -> Alcotest.fail "expected Recovered");
  let expect = [ 100. /. 1000.; 200. /. 1000.; 250. /. 1000. ] in
  check_int "three sleeps" (List.length expect) (List.length !sleeps);
  List.iter2
    (fun a b -> check "capped exponential backoff" true (Float.abs (a -. b) < 1e-9))
    expect (List.rev !sleeps)

let test_supervisor_checkpoints_to_disk () =
  let path = Filename.temp_file "resil_sup" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Term.reset_nulls ();
      (match
         Resil.Supervisor.run ~engine:`Indexed
           ~budget:(Generators.resil_budget ()) ~retries:1 ~checkpoint_path:path
           ~sleep:(fun s -> ignore s)
           ~fault_plan:[ Resil.Fault.At_point ("engine.pass", 3) ]
           unit_sigma unit_db
       with
      | Resil.Supervisor.Recovered (_, log) ->
          check_int "one failed attempt" 1 (List.length log);
          (* only failed attempts are logged; the first ran from scratch *)
          check "first attempt started from scratch" true
            ((List.hd log).Resil.Supervisor.resumed_from = None)
      | _ -> Alcotest.fail "expected Recovered");
      match Resil.Checkpoint.load path with
      | Error e ->
          Alcotest.failf "final checkpoint unreadable: %s"
            (Resil.Checkpoint.error_message e)
      | Ok s ->
          check "final checkpoint is at the run's last boundary" true
            (s.Chase.snap_level > 0))

(* ------------------------------------------------------------------ *)
(* Crash under one engine, resume under the other                       *)
(* ------------------------------------------------------------------ *)

(* Kill a run mid-flight at its third pass (each engine has its own pass
   probe), keep its last clean checkpoint, and resume it under
   [resume_engine]: the result must be equivalent to the uninterrupted
   run. *)
let crash_and_resume ~crash_engine ~resume_engine () =
  let point =
    match crash_engine with `Indexed -> "engine.pass" | `Naive -> "chase.pass"
  in
  Term.reset_nulls ();
  let full =
    Chase.run ~engine:crash_engine ~budget:(Generators.resil_budget ())
      unit_sigma unit_db
  in
  Term.reset_nulls ();
  let last = ref None in
  (match
     Resil.Fault.with_trigger
       (Some (Resil.Fault.At_point (point, 3)))
       (fun () ->
         Chase.run ~engine:crash_engine ~budget:(Generators.resil_budget ())
           ~on_pass:(fun ~level:_ ~saturated:_ take -> last := Some (take ()))
           unit_sigma unit_db)
   with
  | _ -> Alcotest.fail "expected the injected fault to kill the run"
  | exception Resil.Fault.Injected _ -> ());
  let s =
    match !last with
    | Some s -> s
    | None -> Alcotest.fail "no clean boundary before the injected fault"
  in
  check "snapshot records the engine it was taken under" true
    (s.Chase.snap_engine = crash_engine);
  let r =
    Chase.resume ~engine:resume_engine ~budget:(Generators.resil_budget ())
      unit_sigma s
  in
  check
    (Fmt.str "crash under %s, resume under %s ≍ uninterrupted"
       (Generators.engine_to_string crash_engine)
       (Generators.engine_to_string resume_engine))
    true
    (results_equivalent full r)

(* A checkpoint written by the retired multicore engine, verbatim: the
   last clean boundary of a two-domain run of [unit_sigma] killed at
   its third pass. It must load as indexed, match the checkpoint the
   indexed engine writes at the same boundary, and resume to the same
   facts (null ids included) and stats as an uninterrupted indexed run. *)
let legacy_parallel_checkpoint =
  {|{"schema":"guarded-chase-checkpoint","version":1,"engine":"parallel","policy":"oblivious","level":2,"saturated":false,"null_count":1,"triggers_fired":2,"triggers_dismissed":0,"counters":{"index.duplicates":0,"index.inserts":3,"index.probes":0,"index.removes":0,"joiner.backtracks":0,"joiner.candidates":2},"facts":[{"p":"A","l":0,"a":["a"]},{"p":"S","l":1,"a":["a",{"n":1}]},{"p":"A","l":2,"a":[{"n":1}]}]}|}

let test_legacy_parallel_checkpoint () =
  let s =
    match
      Result.bind
        (Obs.Json.parse legacy_parallel_checkpoint)
        Resil.Checkpoint.of_json
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "legacy checkpoint unreadable: %s" e
  in
  check "\"parallel\" loads as indexed" true (s.Chase.snap_engine = `Indexed);
  let indexed_ck =
    List.nth
      (Generators.chase_snapshots ~engine:`Indexed ~policy:Chase.Oblivious
         unit_sigma unit_db)
      1
  in
  Alcotest.(check string)
    "same boundary as the indexed engine's checkpoint"
    (Obs.Json.to_string (Resil.Checkpoint.to_json indexed_ck))
    (Obs.Json.to_string (Resil.Checkpoint.to_json s));
  let observe r =
    ( List.sort Stdlib.compare (Generators.facts_levels r),
      Generators.cut_at_histograms
        (Obs.Json.to_string (Obs.Report.to_json (Chase.report r))) )
  in
  Term.reset_nulls ();
  let full =
    Chase.run ~engine:`Indexed ~budget:(Generators.resil_budget ()) unit_sigma
      unit_db
  in
  let resumed =
    Chase.resume ~budget:(Generators.resil_budget ()) unit_sigma s
  in
  check "resumed ≡ uninterrupted indexed run (facts, nulls, stats)" true
    (observe resumed = observe full)

(* ------------------------------------------------------------------ *)
(* The retired multicore engine's [`Parallel n] tag                     *)
(* ------------------------------------------------------------------ *)

(* [Chase.run] still accepts [`Parallel n] from callers written against
   the retired multicore engine and runs the indexed loop, so whatever a
   caller observes under that tag — facts with null ids and s-levels,
   every clean-boundary checkpoint, the stats report up to its timing
   tail — is byte-identical to [`Indexed] for every n. *)
let legacy_observe ~engine ~policy sigma db =
  Term.reset_nulls ();
  let r =
    Chase.run ~engine ~policy ~budget:(Generators.resil_budget ()) sigma db
  in
  let stats =
    Obs.Json.to_string (Obs.Report.to_json (Chase.report ~name:"par" r))
  in
  let trace =
    Generators.chase_snapshots ~engine ~policy sigma db
    |> List.map (fun s -> Obs.Json.to_string (Resil.Checkpoint.to_json s))
  in
  ( List.sort Stdlib.compare (Generators.facts_levels r),
    Chase.saturated r,
    Chase.max_level r,
    Generators.cut_at_histograms stats,
    trace )

let arb_legacy_case =
  QCheck.make
    ~print:(fun (sigma, db, policy) ->
      Fmt.str "%s policy=%s"
        (Generators.print_sigma_db (sigma, db))
        (match policy with
        | Chase.Oblivious -> "oblivious"
        | Chase.Restricted -> "restricted"))
    QCheck.Gen.(
      let* sigma = Generators.gen_sigma
      and* db = Generators.gen_db
      and* policy = Generators.gen_policy in
      return (sigma, db, policy))

let prop_parallel_byte_identical =
  QCheck.Test.make
    ~name:"Parallel n ≡ Indexed byte-for-byte: facts, nulls, snapshots, stats"
    ~count:60 arb_legacy_case (fun (sigma, db, policy) ->
      let base = legacy_observe ~engine:`Indexed ~policy sigma db in
      List.for_all
        (fun n -> legacy_observe ~engine:(`Parallel n) ~policy sigma db = base)
        [ 1; 2; 4 ])

let prop_parallel_naive_equiv =
  QCheck.Test.make ~name:"Parallel ≍ Naive up to null renaming" ~count:60
    arb_legacy_case (fun (sigma, db, policy) ->
      Term.reset_nulls ();
      let naive =
        Chase.run ~engine:`Naive ~policy ~budget:(Generators.resil_budget ())
          sigma db
      in
      Term.reset_nulls ();
      let par =
        Chase.run ~engine:(`Parallel 2) ~policy
          ~budget:(Generators.resil_budget ()) sigma db
      in
      results_equivalent naive par)

(* The checkpoint encoding never carried a domain count: runs under the
   legacy tag with one and with four domains write byte-identical
   checkpoints, recorded as indexed, and every one of them, relabelled
   "parallel" as the multicore engine wrote it, loads back unchanged. *)
let test_checkpoint_domain_agnostic () =
  let trace n =
    Generators.chase_snapshots ~engine:(`Parallel n) ~policy:Chase.Oblivious
      unit_sigma unit_db
    |> List.map (fun s -> Obs.Json.to_string (Resil.Checkpoint.to_json s))
  in
  let t1 = trace 1 and t4 = trace 4 in
  check "checkpoints byte-identical across domain counts" true (t1 = t4);
  check "several clean boundaries" true (List.length t1 > 1);
  let indexed_field = {|"engine":"indexed"|} in
  let relabel s =
    let m = String.length indexed_field in
    let rec find i =
      if i + m > String.length s then
        Alcotest.failf "no indexed engine field in %s" s
      else if String.sub s i m = indexed_field then
        String.sub s 0 i ^ {|"engine":"parallel"|}
        ^ String.sub s (i + m) (String.length s - i - m)
      else find (i + 1)
    in
    find 0
  in
  List.iter
    (fun ck ->
      match
        Result.bind (Obs.Json.parse (relabel ck)) Resil.Checkpoint.of_json
      with
      | Error e -> Alcotest.failf "checkpoint unreadable: %s" e
      | Ok s ->
          Alcotest.(check string)
            "\"parallel\" checkpoint loads as the indexed one" ck
            (Obs.Json.to_string (Resil.Checkpoint.to_json s)))
    t1

(* ------------------------------------------------------------------ *)
(* Fault plans                                                          *)
(* ------------------------------------------------------------------ *)

let arb_fault_plan =
  QCheck.make
    ~print:(fun p -> Resil.Fault.to_string p)
    Generators.gen_fault_plan

let prop_fault_plan_roundtrip =
  QCheck.Test.make ~name:"fault plan parse ∘ to_string = id" ~count:200
    arb_fault_plan (fun plan ->
      Resil.Fault.parse (Resil.Fault.to_string plan) = Ok plan)

let test_fault_parse () =
  check "none" true (Resil.Fault.parse "none" = Ok []);
  check "empty" true (Resil.Fault.parse "" = Ok []);
  check "hit" true (Resil.Fault.parse "hit:7" = Ok [ Resil.Fault.At_hit 7 ]);
  check "list" true
    (Resil.Fault.parse "hit:1,point:engine.pass:2,ms:5"
    = Ok
        [
          Resil.Fault.At_hit 1;
          Resil.Fault.At_point ("engine.pass", 2);
          Resil.Fault.After_ms 5.;
        ]);
  check "always-fire point" true
    (Resil.Fault.parse "point:engine.answer:*"
    = Ok [ Resil.Fault.Every_point "engine.answer" ]);
  check "always-fire roundtrips" true
    (Resil.Fault.parse
       (Resil.Fault.to_string [ Resil.Fault.Every_point "engine.answer" ])
    = Ok [ Resil.Fault.Every_point "engine.answer" ]);
  check "always-fire plans are stateless" true
    (Resil.Fault.stateless [ Resil.Fault.Every_point "p" ]);
  check "counted plans are not stateless" false
    (Resil.Fault.stateless
       [ Resil.Fault.Every_point "p"; Resil.Fault.At_hit 1 ]);
  check "the empty plan is not stateless" false (Resil.Fault.stateless []);
  check "seed is deterministic" true
    (Resil.Fault.parse "seed:42:4" = Resil.Fault.parse "seed:42:4");
  (match Resil.Fault.parse "seed:42:4" with
  | Ok plan -> check_int "seed expands to the requested attempts" 4 (List.length plan)
  | Error _ -> Alcotest.fail "seed spec rejected");
  List.iter
    (fun bad ->
      check (Fmt.str "rejects %S" bad) true
        (Result.is_error (Resil.Fault.parse bad)))
    [ "bogus"; "hit:x"; "hit:0"; "point:engine.pass"; "ms:nope"; "seed:x" ]

let test_fault_arm_determinism () =
  let count_hits trig =
    Term.reset_nulls ();
    match
      Resil.Fault.with_trigger (Some trig) (fun () ->
          Chase.run ~engine:`Indexed ~budget:(Generators.resil_budget ())
            unit_sigma unit_db)
    with
    | _ -> None
    | exception Resil.Fault.Injected (point, hit) -> Some (point, hit)
  in
  let a = count_hits (Resil.Fault.At_hit 20) in
  let b = count_hits (Resil.Fault.At_hit 20) in
  check "same trigger, same failure point" true (a = b && a <> None);
  check "probes disarmed afterwards" true (not (Obs.Probe.armed ()))

(* ------------------------------------------------------------------ *)
(* Typed checkpoint errors                                              *)
(* ------------------------------------------------------------------ *)

let contains_sub hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_checkpoint_typed_errors () =
  (match Resil.Checkpoint.load "/no/such/checkpoint.json" with
  | Error (Resil.Checkpoint.Io msg) ->
      check "Io message is one line" true (not (String.contains msg '\n'))
  | Error (Resil.Checkpoint.Corrupt _) ->
      Alcotest.fail "a missing file is Io, not Corrupt"
  | Ok _ -> Alcotest.fail "load of a missing file succeeded");
  let path = Filename.temp_file "resil_bad_ck" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"schema\": \"guarded-chase-checkpoint\", \"ver";
      close_out oc;
      match Resil.Checkpoint.load path with
      | Error (Resil.Checkpoint.Corrupt msg) ->
          check "Corrupt names the file" true
            (contains_sub msg (Filename.basename path));
          check "Corrupt message is one line" true
            (not (String.contains msg '\n'))
      | Error (Resil.Checkpoint.Io _) ->
          Alcotest.fail "unparseable JSON is Corrupt, not Io"
      | Ok _ -> Alcotest.fail "load of truncated JSON succeeded");
  (* readable, well-formed JSON with the wrong schema: the Io/Corrupt
     split keys on what the bytes mean, not on whether they parse *)
  let path = Filename.temp_file "resil_alien_ck" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"schema\": \"some-other-artifact\", \"version\": 1}";
      close_out oc;
      match Resil.Checkpoint.load path with
      | Error (Resil.Checkpoint.Corrupt _) -> ()
      | Error (Resil.Checkpoint.Io _) ->
          Alcotest.fail "an alien schema is Corrupt, not Io"
      | Ok _ -> Alcotest.fail "load of an alien schema succeeded")

(* ------------------------------------------------------------------ *)
(* CRC32 and the WAL                                                    *)
(* ------------------------------------------------------------------ *)

let test_crc32 () =
  (* the standard CRC-32 check value *)
  check_int "check value" 0xCBF43926 (Resil.Crc32.string "123456789");
  check_int "empty string" 0 (Resil.Crc32.string "");
  let c = Resil.Crc32.string "a WAL record payload" in
  check "hex round-trip" true (Resil.Crc32.of_hex (Resil.Crc32.to_hex c) = Some c);
  check "rejects short hex" true (Resil.Crc32.of_hex "abc" = None);
  check "rejects non-hex" true (Resil.Crc32.of_hex "zzzzzzzz" = None)

(* Σ terminates: A(x) → B(x); B(x) → ∃y S(x,y). Inserts/deletes of A
   facts cascade through both rules, inventing one null per chain. *)
let serve_sigma =
  [
    tgd [ atom "A" [ v "x" ] ] [ atom "B" [ v "x" ] ];
    tgd [ atom "B" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ];
  ]

let serve_db = Instance.of_facts [ fact "A" [ "a" ]; fact "A" [ "b" ] ]

let with_tmpdir f =
  let dir = Filename.temp_file "resil_wal" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

let test_wal_roundtrip () =
  Term.reset_nulls ();
  let store = Incr.create serve_sigma serve_db in
  with_tmpdir (fun dir ->
      let w = Resil.Wal.create ~dir (Incr.image store) in
      let ops =
        [
          Incr.Insert (fact "A" [ "c" ]);
          Incr.Delete (fact "A" [ "a" ]);
          Incr.Insert (fact "A" [ "d" ]);
        ]
      in
      List.iteri
        (fun i op ->
          Resil.Wal.append w (Resil.Wal.Op (i + 1, op));
          ignore (Incr.apply store op))
        ops;
      Resil.Wal.close w;
      match Resil.Wal.recover ~dir with
      | Error e -> Alcotest.fail e
      | Ok r ->
          check_int "image at seq 0" 0 r.Resil.Wal.rec_image_seq;
          check_int "three tail records" 3 (List.length r.Resil.Wal.rec_ops);
          check_int "last seq" 3 r.Resil.Wal.rec_last_seq;
          check_int "nothing truncated" 0 r.Resil.Wal.rec_truncated;
          (* image + tail replay reproduces the store exactly — same
             facts, same null ids *)
          let rebuilt = Incr.of_image serve_sigma r.Resil.Wal.rec_image in
          List.iter
            (fun (_, op) -> ignore (Incr.apply rebuilt op))
            r.Resil.Wal.rec_ops;
          check "replayed store is identical" true
            (Instance.equal (Incr.instance rebuilt) (Incr.instance store)))

let test_wal_rotation_prunes () =
  Term.reset_nulls ();
  let store = Incr.create serve_sigma serve_db in
  with_tmpdir (fun dir ->
      let w = Resil.Wal.create ~dir (Incr.image store) in
      let op1 = Incr.Insert (fact "A" [ "c" ]) in
      Resil.Wal.append w (Resil.Wal.Op (1, op1));
      ignore (Incr.apply store op1);
      Resil.Wal.rotate w ~seq:1 (Incr.image store);
      let op2 = Incr.Delete (fact "A" [ "b" ]) in
      Resil.Wal.append w (Resil.Wal.Op (2, op2));
      ignore (Incr.apply store op2);
      Resil.Wal.close w;
      check "old image pruned" false
        (Sys.file_exists (Filename.concat dir "image-0.json"));
      check "old segment pruned" false
        (Sys.file_exists (Filename.concat dir "wal-0.log"));
      match Resil.Wal.recover ~dir with
      | Error e -> Alcotest.fail e
      | Ok r ->
          check_int "recovers from the rotated image" 1
            r.Resil.Wal.rec_image_seq;
          check_int "one tail record" 1 (List.length r.Resil.Wal.rec_ops);
          let rebuilt = Incr.of_image serve_sigma r.Resil.Wal.rec_image in
          List.iter
            (fun (_, op) -> ignore (Incr.apply rebuilt op))
            r.Resil.Wal.rec_ops;
          check "replay from rotated image is identical" true
            (Instance.equal (Incr.instance rebuilt) (Incr.instance store)))

let append_raw dir seg bytes =
  let path = Filename.concat dir (Printf.sprintf "wal-%d.log" seg) in
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc bytes;
  close_out oc;
  path

let test_wal_truncates_torn_tail () =
  Term.reset_nulls ();
  let store = Incr.create serve_sigma serve_db in
  with_tmpdir (fun dir ->
      let w = Resil.Wal.create ~dir (Incr.image store) in
      Resil.Wal.append w (Resil.Wal.Op (1, Incr.Insert (fact "A" [ "c" ])));
      Resil.Wal.close w;
      (* a crash mid-append: record body without its newline *)
      let path = append_raw dir 0 "deadbeef {\"s\":2,\"k\":\"+\"" in
      (match Resil.Wal.recover ~dir with
      | Error e -> Alcotest.failf "torn tail should recover: %s" e
      | Ok r ->
          check_int "torn record truncated" 1 r.Resil.Wal.rec_truncated;
          check_int "surviving record kept" 1 (List.length r.Resil.Wal.rec_ops);
          check_int "last seq ignores the torn record" 1
            r.Resil.Wal.rec_last_seq);
      (* the torn bytes are physically gone: recovery is idempotent *)
      (match Resil.Wal.recover ~dir with
      | Error e -> Alcotest.fail e
      | Ok r -> check_int "second recovery sees a clean tail" 0
            r.Resil.Wal.rec_truncated);
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      close_in ic;
      let reopened = Resil.Wal.reopen ~dir in
      Resil.Wal.append reopened
        (Resil.Wal.Op (2, Incr.Insert (fact "A" [ "d" ])));
      Resil.Wal.close reopened;
      let ic = open_in_bin path in
      let len' = in_channel_length ic in
      close_in ic;
      check "appends resume on the clean boundary" true (len' > len);
      match Resil.Wal.recover ~dir with
      | Error e -> Alcotest.fail e
      | Ok r -> check_int "both records readable" 2 (List.length r.Resil.Wal.rec_ops))

let test_wal_rejects_interior_corruption () =
  Term.reset_nulls ();
  let store = Incr.create serve_sigma serve_db in
  with_tmpdir (fun dir ->
      let w = Resil.Wal.create ~dir (Incr.image store) in
      Resil.Wal.append w (Resil.Wal.Op (1, Incr.Insert (fact "A" [ "c" ])));
      Resil.Wal.close w;
      (* a corrupt line with a valid record after it is not a torn tail *)
      ignore (append_raw dir 0 "00000000 {\"garbage\":true}\n");
      let payload = "{\"s\":2,\"k\":\"-\",\"p\":\"A\",\"a\":[\"c\"]}" in
      ignore
        (append_raw dir 0
           (Resil.Crc32.to_hex (Resil.Crc32.string payload) ^ " " ^ payload
          ^ "\n"));
      match Resil.Wal.recover ~dir with
      | Error msg ->
          check "diagnostic names the record" true
            (contains_sub msg "corrupt record")
      | Ok _ -> Alcotest.fail "interior corruption must not recover")

let test_wal_image_codec_roundtrip () =
  Term.reset_nulls ();
  let store = Incr.create serve_sigma serve_db in
  ignore (Incr.apply store (Incr.Delete (fact "A" [ "a" ])));
  let im = Incr.image store in
  let j = Resil.Wal.image_to_json ~seq:7 im in
  let str = Obs.Json.to_string j in
  match Result.bind (Obs.Json.parse str) Resil.Wal.image_of_json with
  | Error e -> Alcotest.fail e
  | Ok (seq, im') ->
      check_int "seq preserved" 7 seq;
      check "image round-trips" true (im' = im);
      check "serialisation is stable" true
        (Obs.Json.to_string (Resil.Wal.image_to_json ~seq:7 im') = str)

(* ------------------------------------------------------------------ *)
(* Sequential fault plans                                               *)
(* ------------------------------------------------------------------ *)

let fire name =
  try
    Obs.Probe.hit name;
    None
  with Resil.Fault.Injected (pt, _) -> Some pt

let test_fault_arm_seq () =
  Resil.Fault.arm_seq
    [ Resil.Fault.At_point ("p", 2); Resil.Fault.At_hit 1 ];
  check "first hit of p passes" true (fire "p" = None);
  check "other points do not advance At_point" true (fire "q" = None);
  check "second hit of p fires trigger 1" true (fire "p" = Some "p");
  (* trigger 2 is now live with fresh counters: the next hit anywhere
     fires *)
  check "trigger 2 fires on its first hit" true (fire "q" = Some "q");
  check "exhausted plan runs fault-free" true
    (fire "p" = None && fire "q" = None && fire "r" = None);
  Resil.Fault.disarm ();
  check "disarmed" true (not (Obs.Probe.armed ()));
  (* an always-fire trigger fires at every hit of its point and never
     advances the sequence — a later trigger stays dormant *)
  Resil.Fault.arm_seq
    [ Resil.Fault.Every_point "p"; Resil.Fault.At_hit 1 ];
  check "always-fire passes other points" true (fire "q" = None);
  check "always-fire fires on its point" true (fire "p" = Some "p");
  check "always-fire fires again" true (fire "p" = Some "p");
  check "the sequence never advances" true (fire "q" = None);
  Resil.Fault.disarm ()

let test_fault_suspended () =
  Resil.Fault.arm_seq [ Resil.Fault.At_hit 2 ];
  check "one hit consumed" true (fire "x" = None);
  let inside =
    Resil.Fault.suspended (fun () ->
        fire "x" = None && fire "x" = None && fire "x" = None)
  in
  check "no injection while suspended" true inside;
  (* re-installed with its counter intact: one more hit fires *)
  check "trigger fires after resumption" true (fire "x" = Some "x");
  Resil.Fault.disarm ()

(* ------------------------------------------------------------------ *)
(* Serve supervisor: the degradation ladder                             *)
(* ------------------------------------------------------------------ *)

let ladder_fixture () =
  Term.reset_nulls ();
  let store = ref (Incr.create serve_sigma serve_db) in
  let image = ref (Incr.image !store) in
  let restore () = Incr.of_image serve_sigma !image in
  let rechase st = Incr.create serve_sigma (Incr.base st) in
  (store, restore, rechase)

let test_ladder_clean_apply () =
  let store, restore, rechase = ladder_fixture () in
  match
    Resil.Serve_supervisor.apply ~sleep:(fun _ -> ()) ~restore ~rechase ~store
      (Incr.Insert (fact "A" [ "c" ]))
  with
  | Resil.Serve_supervisor.Applied (eff, [ s ]) ->
      check "applied" true (not eff.Incr.e_noop);
      check "single clean attempt on the repair rung" true
        (s.Resil.Serve_supervisor.st_rung = Resil.Serve_supervisor.Repair
        && s.Resil.Serve_supervisor.st_outcome = `Ok)
  | _ -> Alcotest.fail "expected a one-step Applied"

let test_ladder_retries_clean_fault () =
  let store, restore, rechase = ladder_fixture () in
  (* the incr.delete probe fires before any state change: the store is
     left clean and attempt 2 repairs in place *)
  Resil.Fault.arm_seq [ Resil.Fault.At_point ("incr.delete", 1) ];
  let outcome =
    Fun.protect ~finally:Resil.Fault.disarm (fun () ->
        Resil.Serve_supervisor.apply ~retries:3 ~sleep:(fun _ -> ()) ~restore
          ~rechase ~store
          (Incr.Delete (fact "A" [ "a" ])))
  in
  match outcome with
  | Resil.Serve_supervisor.Applied (eff, steps) ->
      check "mutation landed" true (not eff.Incr.e_noop);
      check "transcript: repair faulted, rederive succeeded" true
        (List.map
           (fun (s : Resil.Serve_supervisor.step) ->
             ( s.st_rung,
               match s.st_outcome with `Ok -> true | `Fault _ -> false ))
           steps
        = [
            (Resil.Serve_supervisor.Repair, false);
            (Resil.Serve_supervisor.Rederive, true);
          ]);
      check "deleted from the store" true
        (not (Instance.mem (fact "A" [ "a" ]) (Incr.instance !store)))
  | _ -> Alcotest.fail "expected Applied after one retry"

let test_ladder_restores_dirty_store () =
  let store, restore, rechase = ladder_fixture () in
  (* a fault mid-insert (inside the delta fixpoint) leaves the store
     dirty; the rederive rung must restore before retrying *)
  Resil.Fault.arm_seq [ Resil.Fault.At_point ("engine.pass", 1) ];
  let outcome =
    Fun.protect ~finally:Resil.Fault.disarm (fun () ->
        Resil.Serve_supervisor.apply ~retries:3 ~sleep:(fun _ -> ()) ~restore
          ~rechase ~store
          (Incr.Insert (fact "A" [ "z" ])))
  in
  match outcome with
  | Resil.Serve_supervisor.Applied (_, steps) ->
      check_int "two attempts" 2 (List.length steps);
      check "store is clean afterwards" true (not (Incr.dirty !store));
      check "inserted chain present" true
        (Instance.mem (fact "B" [ "z" ]) (Incr.instance !store))
  | _ -> Alcotest.fail "expected Applied after restoring the dirty store"

let test_ladder_quarantines_poison () =
  let store, restore, rechase = ladder_fixture () in
  let before = Incr.instance !store in
  Resil.Fault.arm_seq
    [
      Resil.Fault.At_point ("incr.delete", 1);
      Resil.Fault.At_point ("incr.delete", 1);
      Resil.Fault.At_point ("incr.delete", 1);
    ];
  let outcome =
    Fun.protect ~finally:Resil.Fault.disarm (fun () ->
        Resil.Serve_supervisor.apply ~retries:3 ~sleep:(fun _ -> ()) ~restore
          ~rechase ~store
          (Incr.Delete (fact "A" [ "a" ])))
  in
  (match outcome with
  | Resil.Serve_supervisor.Quarantined (steps, msg) ->
      check "transcript climbs the whole ladder" true
        (List.map
           (fun (s : Resil.Serve_supervisor.step) -> s.st_rung)
           steps
        = [
            Resil.Serve_supervisor.Repair;
            Resil.Serve_supervisor.Rederive;
            Resil.Serve_supervisor.Rechase;
          ]);
      check "diagnostic names the fault" true
        (contains_sub msg "incr.delete")
  | _ -> Alcotest.fail "expected Quarantined");
  check "pre-mutation store restored" true
    (Instance.equal before (Incr.instance !store));
  (* the poison is contained: the next mutation applies cleanly *)
  match
    Resil.Serve_supervisor.apply ~sleep:(fun _ -> ()) ~restore ~rechase ~store
      (Incr.Insert (fact "A" [ "c" ]))
  with
  | Resil.Serve_supervisor.Applied (eff, _) ->
      check "later mutations still apply" true (not eff.Incr.e_noop)
  | _ -> Alcotest.fail "store unusable after quarantine"

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_checkpoint_roundtrip;
      prop_resume_equiv;
      prop_supervised_equiv;
      prop_fault_plan_roundtrip;
      prop_parallel_byte_identical;
      prop_parallel_naive_equiv;
    ]

let () =
  Alcotest.run "resil"
    [
      ( "units",
        [
          Alcotest.test_case "checkpoint disk round-trip" `Quick
            test_checkpoint_disk_roundtrip;
          Alcotest.test_case "checkpoint schema validation" `Quick
            test_checkpoint_rejects_bad_schema;
          Alcotest.test_case "supervisor degrades to naive" `Quick
            (test_supervisor_degrades ~retries:2);
          Alcotest.test_case "supervisor failure is a typed outcome" `Quick
            test_supervisor_failed_is_typed;
          Alcotest.test_case "supervisor backoff sequence" `Quick
            test_supervisor_backoff_sequence;
          Alcotest.test_case "supervisor persists checkpoints" `Quick
            test_supervisor_checkpoints_to_disk;
          Alcotest.test_case "supervisor degradation ladder" `Quick
            (test_supervisor_degrades ~retries:0);
          Alcotest.test_case "crash indexed, resume naive" `Quick
            (crash_and_resume ~crash_engine:`Indexed ~resume_engine:`Naive);
          Alcotest.test_case "crash naive, resume indexed" `Quick
            (crash_and_resume ~crash_engine:`Naive ~resume_engine:`Indexed);
          Alcotest.test_case "crash parallel, resume indexed" `Quick
            test_legacy_parallel_checkpoint;
          Alcotest.test_case "checkpoints are domain-count agnostic" `Quick
            test_checkpoint_domain_agnostic;
          Alcotest.test_case "fault plan parsing" `Quick test_fault_parse;
          Alcotest.test_case "fault arming is deterministic" `Quick
            test_fault_arm_determinism;
          Alcotest.test_case "checkpoint errors are typed" `Quick
            test_checkpoint_typed_errors;
          Alcotest.test_case "crc32" `Quick test_crc32;
          Alcotest.test_case "fault sequential plans" `Quick test_fault_arm_seq;
          Alcotest.test_case "fault suspension" `Quick test_fault_suspended;
        ] );
      ( "wal",
        [
          Alcotest.test_case "append and recover round-trip" `Quick
            test_wal_roundtrip;
          Alcotest.test_case "rotation prunes and stays recoverable" `Quick
            test_wal_rotation_prunes;
          Alcotest.test_case "torn tail is truncated" `Quick
            test_wal_truncates_torn_tail;
          Alcotest.test_case "interior corruption is an error" `Quick
            test_wal_rejects_interior_corruption;
          Alcotest.test_case "image codec round-trip" `Quick
            test_wal_image_codec_roundtrip;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "clean apply is one repair step" `Quick
            test_ladder_clean_apply;
          Alcotest.test_case "clean fault retries in place" `Quick
            test_ladder_retries_clean_fault;
          Alcotest.test_case "dirty store is restored" `Quick
            test_ladder_restores_dirty_store;
          Alcotest.test_case "poison mutation is quarantined" `Quick
            test_ladder_quarantines_poison;
        ] );
      ("properties", qcheck_tests);
    ]
