(* The benchmark generator. One seeded process: it writes the workload's
   program file (and mutation log), starts the CLI binary behind a pipe,
   drives it, checks every reply (or the final store) against a reference,
   and prints the metrics; with --trace 1 it runs the same inputs through
   the library in-process and prints per-layer metrics instead.

     pb.exe --workload NAME --seed N --seconds S --trace 0|1
            --cli PATH --work DIR [--commit SHA] [--corrupt reply|store]

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. perfbench/run.py builds this
   generator and the CLI, then runs it. *)

open Workloads

let cores = Domain.recommended_domain_count ()

(* ---- statistics ---------------------------------------------------------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* nearest-rank percentile of a sorted array; 0 for no samples (the run
   is then marked invalid) *)
let pct a p =
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float n)) - 1)))

let median a = pct (sorted a) 0.5

(* ---- output -------------------------------------------------------------- *)

let num v = Printf.sprintf "%.17g" v

let metrics_json ms =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
       ms)

let result ~correct ~attempted ~failed ms =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (metrics_json ms)

let json_field (k, v) = Printf.sprintf "%S: %s" k v
let jstr s = Printf.sprintf "%S" s

let record fields =
  Printf.printf "{\"record\": {%s}}\n" (String.concat ", " (List.map json_field fields))

let table ms =
  List.iter (fun (name, v, unit) -> Printf.printf "  %-28s %14.6g %s\n" name v unit) ms


type opts = {
  s : settings;
  seed : int;
  seconds : float;
  cli : string;
  work : string;
  commit : string;
  corrupt : string;
}

let common_record o =
  [
    ("workload", jstr o.s.name);
    ("seed", string_of_int o.seed);
    ("seconds", num o.seconds);
    ("cores", string_of_int cores);
    ("ocaml", jstr Sys.ocaml_version);
    ("commit", jstr o.commit);
    ("universities", string_of_int o.s.universities);
    ("chain_edges", string_of_int o.s.chain_edges);
  ]

(* ---- server workloads ---------------------------------------------------- *)

let lateness_bound_ms = 25.
let warmup_s = 0.5

(* p99 needs 10 samples beyond it *)
let min_samples = 1000

(* The p99 of each [min_samples] consecutive samples. On a shared 2-vCPU
   VM the neighbours stall the generator or the CLI for tens of milliseconds
   at a time; at 30,000 requests/s one stall delays hundreds of requests,
   so the p99 of all samples measures the host's stalls (on point-distinct
   over 5 seeds it read 5.4 to 128 ms). The median of the block p99s is
   the tail of a typical stretch, but a run in a slow spell still moves it
   threefold, so it is shown, not gated. *)
let block_p99s lat =
  Array.init (Array.length lat / min_samples) (fun b ->
      pct (sorted (Array.sub lat (b * min_samples) min_samples)) 0.99)

(* Per server process [i], a generator of its requests. [scan-repeat]
   draws Zipf-popular texts; [point-distinct] walks the point stream from
   a per-process offset into its first [pool] requests, then on into
   requests drawn past them, so no request repeats within a process (the
   lifetime of any cache it has). *)
let server_requests o p rng =
  match Oracle.requests o.s p rng ~pool:o.s.pool with
  | Oracle.Scan reqs, bad ->
      let draw = zipf_sampler (Random.State.make [| o.seed; 4 |]) (Array.length reqs) in
      ((fun _ () -> reqs.(draw ())), bad)
  | Oracle.Points pl, bad ->
      let n = o.s.pool in
      let walk i =
        let taken = ref (-1) in
        fun () ->
          incr taken;
          pool_get pl (if !taken < n then ((i * n / processes) + !taken) mod n else !taken)
      in
      (walk, bad)

(* Each run starts [processes] CLI processes and spreads the measurement
   over them, so one process's heap layout and domain placement do not
   decide the run. The gated metrics (BENCHMARK.json) pool the processes:
   - cpu_us_per_op: the CLI process's CPU time in the closed loops over
     all closed-loop replies. Time it spent waiting for a CPU is not in
     it, so it measures the program's work, not how busy the host was;
   - setup_s, peak_rss_mb: the median over the processes.
   Shown and recorded beside them, not gated, because on a shared host
   they spread past any bound between runs of the same code (IQR over
   median of 10 runs: ops_per_s 0.30 to 0.36, p99_ms up to 1.7):
   - ops_per_s: all closed-loop replies over all closed-loop seconds;
   - p50_ms: the median of all open-loop latencies;
   - p99_ms: the median of the block p99s above, and pooled_p99_ms the
     p99 of all latencies. *)
let run_server o =
  let s = o.s in
  let rng = Random.State.make [| o.seed; 1 |] in
  let prog_path = Filename.concat o.work "program.gd" in
  let text = program s in
  Drive.write_file prog_path text;
  let k = processes in
  let next_req, model_bad = server_requests o (Syntax.Parser.parse text) rng in
  Gc.compact ();
  let args = [ "server"; prog_path; "--workers"; string_of_int workers ] in
  let stderr_path = Filename.concat o.work "cli.err" in
  let closed_s = s.closed_share *. o.seconds /. float k in
  let open_n = int_of_float (s.rate *. (1. -. s.closed_share) *. o.seconds) / k in
  let setup_t = Array.make k 0. and hwm = Array.make k 0. in
  let replies = ref 0 and replies_s = ref 0. and rates = Array.make k 0. in
  let cpu = ref 0. in
  let lats = ref [] and lates = ref [] in
  let attempted = ref 0 and failed = ref model_bad and first_bad = ref None in
  let banner = ref "" and summary = ref "" in
  for i = 0 to k - 1 do
    let corrupt = if o.corrupt = "reply" && i = 0 then 7 else -1 in
    let st = Drive.stream ~corrupt (next_req i) in
    let p = Drive.spawn ~cli:o.cli ~stderr_path args in
    (try
       let b, t = Drive.await_banner p ~prefix:"% server: store saturated" in
       banner := b;
       setup_t.(i) <- t;
       (* warm-up, checked but not timed *)
       ignore (Drive.closed_loop st p ~window ~seconds:warmup_s);
       let c0 = Drive.cpu_s p.Drive.pid in
       let n, t = Drive.closed_loop st p ~window ~seconds:closed_s in
       cpu := !cpu +. Drive.cpu_s p.Drive.pid -. c0;
       replies := !replies + n;
       replies_s := !replies_s +. t;
       rates.(i) <- float n /. t;
       let lat, late = Drive.open_loop st p rng ~rate:s.rate ~count:open_n in
       lats := lat :: !lats;
       lates := late :: !lates;
       match Drive.vm_hwm_kib p.Drive.pid with
       | Some kib -> hwm.(i) <- float kib /. 1024.
       | None -> Drive.fail "no VmHWM"
     with e ->
       Drive.kill p;
       raise e);
    Drive.close_input p;
    let rec drain () =
      match Drive.next_line p.Drive.rd with
      | None -> ()
      | Some l ->
          if String.starts_with ~prefix:"% server:" l then summary := l;
          drain ()
    in
    drain ();
    let code = Drive.reap p in
    failed := !failed + st.Drive.wrong + Drive.missing st + if code = 0 then 0 else 1;
    attempted := !attempted + st.Drive.n;
    if !first_bad = None then first_bad := st.Drive.first_bad
  done;
  let late = sorted (Array.concat !lates) in
  (* blocks run on across the processes, in the order they ran *)
  let p99s = block_p99s (Array.concat (List.rev !lats)) in
  let lat = sorted (Array.concat !lats) in
  let late99 = pct late 0.99 in
  let valid = late99 <= lateness_bound_ms && Array.length lat >= min_samples in
  let failed = !failed and attempted = !attempted in
  let fail_ratio = float failed /. float attempted in
  let ms =
    [
      ("setup_s", median setup_t, "s");
      ("cpu_us_per_op", !cpu *. 1e6 /. float !replies, "us");
      ("peak_rss_mb", median hwm, "MiB");
      ("ok_ratio", 1. -. fail_ratio, "ratio");
    ]
  in
  let pooled_p99 = pct lat 0.99 in
  let shown =
    [
      ("fail_ratio", fail_ratio, "ratio");
      ("ops_per_s", float !replies /. !replies_s, "1/s");
      ("p50_ms", pct lat 0.5, "ms");
      ("p99_ms", median p99s, "ms");
      ("pooled_p99_ms", pooled_p99, "ms");
      ("open_lateness_p99_ms", late99, "ms");
    ]
  in
  Printf.printf
    "%s: %d x server --workers %d; %d requests: closed loop of window %d for %.2f s and %d open-loop at %g/s per process\n"
    s.name k workers attempted window closed_s open_n s.rate;
  table (ms @ shown);
  Option.iter (Printf.printf "  first failure: %s\n") !first_bad;
  if not valid then
    Printf.printf
      "  INVALID latencies: open-loop send lateness p99 %.3f ms (bound %.1f ms), %d samples (need %d)\n"
      late99 lateness_bound_ms (Array.length lat) min_samples;
  Printf.printf "  %s\n  %s\n" !banner !summary;
  record
    (common_record o
    @ [
        ("processes", string_of_int k);
        ("workers", string_of_int workers);
        ("store", jstr !banner);
        ("window", string_of_int window);
        ("closed_loop_s", num !replies_s);
        ("closed_loop_replies", string_of_int !replies);
        ( "closed_loop_rates",
          "[" ^ String.concat ", " (Array.to_list (Array.map num rates)) ^ "]" );
        ("open_rate_per_s", num s.rate);
        ("latency_samples", string_of_int (Array.length lat));
        ("p99_blocks", string_of_int (Array.length p99s));
        ("lateness_bound_ms", num lateness_bound_ms);
        ("latencies_valid", string_of_bool valid);
      ]
    @ List.map (fun (name, v, _) -> (name, num v)) shown);
  result ~correct:(failed = 0) ~attempted ~failed ms

(* ---- serve workload ------------------------------------------------------ *)

(* One [serve --wal] process over its own seeded log. *)
type serve_run = {
  banner : string;
  setup : float;  (** seconds from spawn to the ready banner *)
  gaps : float array;  (** ms between successive effect lines, in order *)
  hwm : float;  (** VmHWM, MiB *)
  cpu : float;  (** CPU seconds of the mutation phase *)
  failures : int;
      (** wrong or missing effect lines, a final store that is not
          skeleton-equal to a fresh chase of the final base, a non-zero
          exit *)
  store_facts : int;  (** size of the final store *)
}

let serve_once o ~rng ~n ~corrupt_store ~note_bad i =
  let s = o.s in
  let log, final_base = churn_log s rng n in
  let prog_path = Filename.concat o.work "program.gd" in
  let log_path = Filename.concat o.work (Printf.sprintf "mutations-%d.log" i) in
  Drive.write_file log_path (String.concat "\n" log ^ "\n");
  let expected =
    let p = Syntax.Parser.parse (program_of s final_base) in
    Oracle.skeleton (Oracle.chase p (Syntax.Parser.database p))
  in
  Gc.compact ();
  let log = Array.of_list log in
  let wal = Filename.concat o.work "wal" in
  Drive.rm_rf wal;
  let p =
    Drive.spawn ~cli:o.cli ~stderr_path:(Filename.concat o.work "cli.err")
      [ "serve"; prog_path; "--log"; log_path; "--wal"; wal ]
  in
  let times = Array.make n 0. in
  let effects = ref 0 and nbad = ref 0 in
  let bad l =
    incr nbad;
    note_bad l
  in
  let hwm = ref None and listing = ref [] and cpu = ref 0. in
  let banner, setup_t, t_ready =
    try
      let banner, setup_t = Drive.await_banner p ~prefix:"% serve: store saturated" in
      let t_ready = Unix.gettimeofday () in
      let c0 = Drive.cpu_s p.Drive.pid in
      let rec effects_phase () =
        match Drive.next_line p.Drive.rd with
        | None -> Drive.fail "serve exited before its summary"
        | Some l when String.starts_with ~prefix:"% serve:" l ->
            cpu := Drive.cpu_s p.Drive.pid -. c0;
            hwm := Drive.vm_hwm_kib p.Drive.pid
        | Some l ->
            let k = !effects in
            if k < n then begin
              times.(k) <- Unix.gettimeofday ();
              incr effects;
              let op = log.(k) in
              let want = "% " ^ String.sub op 0 (String.length op - 1) ^ ":" in
              if
                (not (String.starts_with ~prefix:want l))
                || String.ends_with ~suffix:"(already in the base)" l
                || String.ends_with ~suffix:"(not in the base)" l
              then bad l
            end
            else bad l;
            effects_phase ()
      in
      effects_phase ();
      let rec listing_phase () =
        match Drive.next_line p.Drive.rd with
        | None -> ()
        | Some l ->
            if l <> "" && l.[0] <> '%' then listing := Oracle.collapse_nulls l :: !listing
            else if l <> "" then bad l;
            listing_phase ()
      in
      listing_phase ();
      (banner, setup_t, t_ready)
    with e ->
      Drive.kill p;
      raise e
  in
  let code = Drive.reap p in
  Drive.rm_rf wal;
  let listing = List.sort compare !listing in
  let listing = if corrupt_store then List.tl listing else listing in
  if listing <> expected then bad "final store differs from a fresh chase of the final base";
  if code <> 0 then bad (Printf.sprintf "serve exited %d" code);
  let gaps =
    Array.init !effects (fun k -> (times.(k) -. if k = 0 then t_ready else times.(k - 1)) *. 1e3)
  in
  let hwm = match !hwm with Some k -> float k /. 1024. | None -> Drive.fail "no VmHWM" in
  {
    banner;
    setup = setup_t;
    gaps;
    hwm;
    cpu = !cpu;
    failures = !nbad + (n - !effects);
    store_facts = List.length expected;
  }

(* [processes] serve processes, each over its own log. Gated:
   cpu_us_per_op is the serve processes' CPU time in their mutation phases
   over all mutations (mostly the image rotations); setup_s and
   peak_rss_mb the median over the processes. Shown, not gated: ops_per_s
   (all mutations over the seconds of all mutation phases) and p50_ms,
   p99_ms (percentiles of all gaps; p50 is about half the WAL's fsync,
   whose latency is the host disk's, and p99 is mostly the rotations). *)
let run_serve o =
  let s = o.s in
  let rng = Random.State.make [| o.seed; 2 |] in
  let k = processes in
  let n = int_of_float (s.mutations_per_s *. o.seconds) / k in
  Drive.write_file (Filename.concat o.work "program.gd") (program s);
  let first_bad = ref None in
  let note_bad l = if !first_bad = None then first_bad := Some l in
  let runs =
    Array.init k (fun i ->
        serve_once o ~rng ~n ~corrupt_store:(o.corrupt = "store" && i = 0) ~note_bad i)
  in
  let banner = runs.(0).banner and store_facts = runs.(0).store_facts in
  let gaps = sorted (Array.concat (Array.to_list (Array.map (fun r -> r.gaps) runs))) in
  let phase_s = Array.fold_left ( +. ) 0. gaps /. 1e3 in
  let failed = Array.fold_left (fun a r -> a + r.failures) 0 runs in
  let attempted = n * k in
  let fail_ratio = float failed /. float attempted in
  let valid = Array.length gaps >= min_samples in
  let ms =
    [
      ("setup_s", median (Array.map (fun r -> r.setup) runs), "s");
      ("cpu_us_per_op", Array.fold_left (fun a r -> a +. r.cpu) 0. runs *. 1e6 /. float (Array.length gaps), "us");
      ("peak_rss_mb", median (Array.map (fun r -> r.hwm) runs), "MiB");
      ("ok_ratio", 1. -. fail_ratio, "ratio");
    ]
  in
  let shown =
    [
      ("fail_ratio", fail_ratio, "ratio");
      ("ops_per_s", float (Array.length gaps) /. phase_s, "1/s");
      ("p50_ms", pct gaps 0.5, "ms");
      ("p99_ms", pct gaps 0.99, "ms");
    ]
  in
  let fs = Drive.filesystem o.work in
  Printf.printf
    "%s: %d x serve --wal (default --checkpoint-every 25, fsync per record), %d mutations each, WAL on %s\n"
    s.name k n fs;
  table (ms @ shown);
  Option.iter (Printf.printf "  first failure: %s\n") !first_bad;
  if not valid then
    Printf.printf "  INVALID latencies: %d mutation gaps (need %d)\n" (Array.length gaps) min_samples;
  Printf.printf "  %s\n" banner;
  record
    (common_record o
    @ [
        ("processes", string_of_int k);
        ("store", jstr banner);
        ("mutations_per_process", string_of_int n);
        ("final_store_facts", string_of_int store_facts);
        ("checkpoint_every", string_of_int checkpoint_every);
        ("mutation_phase_s", num phase_s);
        ("wal_filesystem", jstr fs);
        ("fsync", jstr "CLI default: fsync per WAL record and per image");
        ("latencies_valid", string_of_bool valid);
      ]
    @ List.map (fun (name, v, _) -> (name, num v)) shown);
  result ~correct:(failed = 0) ~attempted ~failed ms

(* ---- command line -------------------------------------------------------- *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;

  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let cli = ref "" and work = ref "" and commit = ref "unknown" and corrupt = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--cli", Arg.Set_string cli, "PATH of the guarded CLI binary");
      ("--work", Arg.Set_string work, "DIR for generated inputs and the WAL");
      ("--commit", Arg.Set_string commit, "SHA recorded with the result");
      ("--corrupt", Arg.Set_string corrupt, "reply|store: self-test the checks");
    ]
    (fun a -> raise (Arg.Bad a))
    "pb.exe --workload NAME --seed N --seconds S --trace 0|1 --cli PATH --work DIR";
  match find !workload with
  | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  | Some s -> (
      Drive.rm_rf !work;
      Sys.mkdir !work 0o755;
      let o =
        { s; seed = !seed; seconds = !seconds; cli = !cli; work = !work; commit = !commit;
          corrupt = !corrupt }
      in
      try
        if !trace = 1 then
          Trace.run o.s ~seed:o.seed ~seconds:o.seconds ~work:o.work
            ~record:(fun fields -> record (common_record o @ fields))
            ~result
        else match s.kind with Server -> run_server o | Serve -> run_serve o
      with Drive.Failed msg ->
        prerr_endline ("benchmark failed: " ^ msg);
        exit 1)
