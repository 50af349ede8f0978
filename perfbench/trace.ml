(* The traced run: the workload's inputs through the library in-process,
   with a span around every call into a layer's public function. Spans
   carry name, start, end, parent and request id; they are kept in memory
   and written to <work>/trace.tsv at the end. A layer's self time is its
   span minus its children. Minor words are read around the same calls.

   Every traced run drives all layers on the workload's own program:
   - set-up as [server] does it (parse, chase with the CLI's default
     parallel engine, freeze, view) and as [serve] does it (maintained
     store, first WAL image);
   - the request path of one worker (parse, evaluate, sort, render) over
     the workload's request stream ([serve-churn] uses the [scan-repeat]
     mix over its store), then [Server.Daemon.run] over the same lines;
   - the write path (WAL append, maintenance, image and rotation every 25
     mutations) over the workload's mutation log ([server] workloads use a
     short seeded churn log over their base). *)

open Relational
open Workloads

let now = Unix.gettimeofday

(* ---- span recorder ------------------------------------------------------- *)

type tracer = {
  mutable names : string array;
  mutable starts : float array;
  mutable stops : float array;
  mutable parents : int array;
  mutable reqs : int array;
  mutable n : int;
}

let tracer () =
  let c = 1024 in
  {
    names = Array.make c "";
    starts = Array.make c 0.;
    stops = Array.make c 0.;
    parents = Array.make c (-1);
    reqs = Array.make c 0;
    n = 0;
  }

let grow tr =
  let g a z =
    let b = Array.make (2 * Array.length a) z in
    Array.blit a 0 b 0 tr.n;
    b
  in
  tr.names <- g tr.names "";
  tr.starts <- g tr.starts 0.;
  tr.stops <- g tr.stops 0.;
  tr.parents <- g tr.parents (-1);
  tr.reqs <- g tr.reqs 0

let enter tr ?(parent = -1) ?(req = 0) name =
  if tr.n = Array.length tr.names then grow tr;
  let i = tr.n in
  tr.n <- i + 1;
  tr.names.(i) <- name;
  tr.parents.(i) <- parent;
  tr.reqs.(i) <- req;
  tr.starts.(i) <- now ();
  i

let exit tr i = tr.stops.(i) <- now ()

let span tr ?parent ?req name f =
  let i = enter tr ?parent ?req name in
  let v = f i in
  exit tr i;
  v

(* self time and count per span name *)
let self_times tr =
  let child = Array.make tr.n 0. in
  for i = 0 to tr.n - 1 do
    let p = tr.parents.(i) in
    if p >= 0 then child.(p) <- child.(p) +. (tr.stops.(i) -. tr.starts.(i))
  done;
  let tbl = Hashtbl.create 32 in
  for i = 0 to tr.n - 1 do
    let self = tr.stops.(i) -. tr.starts.(i) -. child.(i) in
    let s, c = Option.value (Hashtbl.find_opt tbl tr.names.(i)) ~default:(0., 0) in
    Hashtbl.replace tbl tr.names.(i) (s +. self, c + 1)
  done;
  fun name ->
    match Hashtbl.find_opt tbl name with
    | Some (s, c) -> (s, c)
    | None -> Drive.fail "no %s span recorded" name

let write tr path =
  let oc = open_out path in
  output_string oc "id\tname\tstart_s\tend_s\tparent\trequest\n";
  for i = 0 to tr.n - 1 do
    Printf.fprintf oc "%d\t%s\t%.6f\t%.6f\t%d\t%d\n" i tr.names.(i) tr.starts.(i)
      tr.stops.(i) tr.parents.(i) tr.reqs.(i)
  done;
  close_out oc

(* minor words allocated by [f], net of the reading's own allocation *)
let words_overhead =
  lazy
    (let w0 = Gc.minor_words () in
     let w1 = Gc.minor_words () in
     w1 -. w0)

let words f =
  let w0 = Gc.minor_words () in
  let v = f () in
  let w1 = Gc.minor_words () in
  (v, w1 -. w0 -. Lazy.force words_overhead)

(* ---- the run ------------------------------------------------------------- *)

let max_level = 8

let file_size path = (Unix.stat path).Unix.st_size

(* where each per-layer metric should show: the end-to-end metrics it
   moves, and on which workloads (scan-repeat is not gated, see
   Workloads.all; p50_ms and p99_ms are shown beside the gated metrics,
   not gated, see Pb.run_server) *)
let setup_pd = "setup_s on point-distinct"
let setup_sc = "setup_s on serve-churn"
let parse_pd = "cpu_us_per_op, p50_ms on point-distinct; not on scan-repeat"
let eval_both = "cpu_us_per_op, p99_ms on scan-repeat, point-distinct"
let scan = "cpu_us_per_op, p99_ms on scan-repeat"
let apply_sc = "p50_ms on serve-churn"
let rotate_sc = "p99_ms, cpu_us_per_op on serve-churn"

let run s ~seed ~seconds ~work ~record ~result =
  let tr = tracer () in
  let rng = Random.State.make [| seed; 3 |] in
  let failed = ref 0 and attempted = ref 0 in
  let first_bad = ref None in
  let bad what =
    incr failed;
    if !first_bad = None then first_bad := Some what
  in
  let root = enter tr "run" in
  (* -- set-up, as [server] does it -- *)
  let text = program s in
  let p, db =
    span tr ~parent:root "parser.program" (fun _ ->
        let p = Syntax.Parser.parse text in
        (p, Syntax.Parser.database p))
  in
  let sigma = p.Syntax.Parser.tgds in
  let mw0 = (Gc.quick_stat ()).Gc.minor_words in
  let r =
    span tr ~parent:root "saturate.chase" (fun _ ->
        Tgds.Chase.run ~engine:(`Parallel (Domain.recommended_domain_count ()))
          ~max_level sigma db)
  in
  let chase_mwords = ((Gc.quick_stat ()).Gc.minor_words -. mw0) /. 1e6 in
  let idx = Tgds.Chase.index r in
  let cm = Engine.Index.metrics idx in
  let count = Obs.Metrics.count cm in
  let triggers =
    match Tgds.Chase.engine_result r with
    | Some er -> er.Engine.Saturate.triggers_fired
    | None -> 0
  in
  let inserts = count "index.inserts" and dups = count "index.duplicates" in
  let saturated = Tgds.Chase.saturated r in
  let snap =
    span tr ~parent:root "snapshot.freeze" (fun _ ->
        Engine.Snapshot.freeze ~saturated ~universe:(Instance.dom db) idx)
  in
  let view = span tr ~parent:root "snapshot.view" (fun _ -> Engine.Snapshot.view snap) in
  (* -- the request path of one worker -- *)
  (* at most [max_requests] requests: point-distinct's pool up front *)
  let max_requests = 20_000 in
  let reqs, model_bad = Oracle.requests s p rng ~pool:(if s.pool > 0 then max_requests else 0) in
  if model_bad > 0 then bad "model replies differ from the oracle";
  let next_req =
    match reqs with
    | Oracle.Scan reqs ->
        let draw = zipf_sampler rng (Array.length reqs) in
        fun () -> reqs.(draw ())
    | Oracle.Points pl ->
        let next = ref (-1) in
        fun () ->
          incr next;
          pool_get pl !next
  in
  let vm = Engine.Snapshot.view_metrics view in
  let probes = ref 0 and answers = ref 0 and reply_bytes = ref 0 in
  let w_parse = ref 0. and w_eval = ref 0. and w_sort = ref 0. and w_render = ref 0. in
  let served = ref [] and queries = ref [] in
  let req_deadline = now () +. (0.3 *. seconds) in
  let id = ref 0 in
  while (now () < req_deadline || !id < 1000) && !id < max_requests do
    incr id;
    let id = !id in
    let rq = next_req () in
    served := rq :: !served;
    incr attempted;
    let top = enter tr ~parent:root ~req:id "request" in
    let line, w =
      words (fun () ->
          span tr ~parent:top ~req:id "protocol.parse" (fun _ ->
              Server.Protocol.parse_line ~id rq.text))
    in
    w_parse := !w_parse +. w;
    match line with
    | Server.Protocol.Request r ->
        queries := r.Server.Protocol.query :: !queries;
        let p0 = Obs.Metrics.count vm "index.probes" in
        let res, w =
          words (fun () ->
              span tr ~parent:top ~req:id "enumerate.eval" (fun _ ->
                  Engine.Snapshot.ucq_i view r.Server.Protocol.query))
        in
        w_eval := !w_eval +. w;
        probes := !probes + Obs.Metrics.count vm "index.probes" - p0;
        answers := !answers + Engine.Enumerate.icount res;
        let (), w =
          words (fun () ->
              span tr ~parent:top ~req:id "enumerate.sort" (fun _ ->
                  if r.Server.Protocol.verb = Server.Protocol.Answers then
                    ignore (Engine.Enumerate.sorted_rows res)))
        in
        w_sort := !w_sort +. w;
        let reply, w =
          words (fun () ->
              span tr ~parent:top ~req:id "protocol.render" (fun _ ->
                  Server.Protocol.render_ok r ~saturated res))
        in
        w_render := !w_render +. w;
        reply_bytes := !reply_bytes + String.length reply + 1;
        exit tr top;
        if reply <> Printf.sprintf "%d %s" id rq.expected then bad ("reply: " ^ rq.text)
    | _ ->
        exit tr top;
        bad ("unparsed: " ^ rq.text)
  done;
  (* candidates scanned, from the enumerator's per-disjunct spans, in an
     untimed second evaluation of every query *)
  let counting_view = Engine.Snapshot.view snap in
  let candidates = ref 0 in
  List.iter
    (fun q ->
      let obs = Obs.Span.root "count" in
      ignore (Engine.Snapshot.ucq_i ~obs counting_view q);
      List.iter
        (fun d ->
          match Obs.Span.attr d "candidates" with
          | Some (Obs.Json.Int c) -> candidates := !candidates + c
          | _ -> ())
        (Obs.Span.children obs))
    !queries;
  let nreq = !id in
  let served = Array.of_list (List.rev !served) in
  (* the same chain without spans or word counts, on a domain of its own
     over a fresh view, as a daemon worker runs it: seconds for all of
     [served] *)
  let plain_chain () =
    let v = Engine.Snapshot.view snap in
    Domain.join
      (Domain.spawn (fun () ->
           let t0 = now () in
           Array.iteri
             (fun k rq ->
               match Server.Protocol.parse_line ~id:(k + 1) rq.text with
               | Server.Protocol.Request r ->
                   ignore
                     (Server.Protocol.render_ok r ~saturated
                        (Engine.Snapshot.ucq_i v r.Server.Protocol.query))
               | _ -> ())
             served;
           now () -. t0))
  in
  (* -- the daemon over the same lines: 1 worker for its overhead over the
     chain, and at the benchmark server's worker count for its allocation -- *)
  let req_path = Filename.concat work "requests.txt" in
  let oc = open_out req_path in
  Array.iter (fun r -> output_string oc r.text; output_char oc '\n') served;
  close_out oc;
  let daemon workers =
    let out_path = Filename.concat work (Printf.sprintf "replies-%d.txt" workers) in
    let ic = open_in req_path and oc = open_out out_path in
    let sum =
      span tr ~parent:root (Printf.sprintf "daemon.run.w%d" workers) (fun _ ->
          Server.Daemon.run
            { Server.Daemon.workers; max_facts = None; max_ms = None; fault_plan = [] }
            snap ic oc)
    in
    close_in ic;
    close_out oc;
    let ic = open_in out_path in
    (try
       while true do
         let l = input_line ic in
         let sp = String.index l ' ' in
         let k = int_of_string (String.sub l 0 sp) in
         if String.sub l (sp + 1) (String.length l - sp - 1) <> served.(k - 1).expected then
           bad ("daemon reply: " ^ served.(k - 1).text)
       done
     with End_of_file -> ());
    close_in ic;
    attempted := !attempted + nreq;
    if sum.Server.Daemon.served <> nreq then bad "daemon: missing replies";
    sum
  in
  (* the daemon's overhead: its time at 1 worker beyond the plain chain,
     medians of [reps] interleaved timings of each *)
  let reps = 3 in
  let chain_s = Array.make reps 0. and d1_s = Array.make reps 0. in
  for r = 0 to reps - 1 do
    chain_s.(r) <- plain_chain ();
    d1_s.(r) <- (daemon 1).Server.Daemon.wall_s
  done;
  let median a =
    let a = Array.copy a in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let overhead_us = (median d1_s -. median chain_s) *. 1e6 /. float nreq in
  let dw = daemon workers in
  (* -- set-up and write path, as [serve --wal] does them -- *)
  let nmut =
    match s.kind with Serve -> int_of_float (s.mutations_per_s *. 0.5 *. seconds) | Server -> 100
  in
  let log, final_base = churn_log s rng nmut in
  let store =
    span tr ~parent:root "incr.create" (fun _ -> Incr.create ~engine:`Indexed ~max_level sigma db)
  in
  let dir = Filename.concat work "wal" in
  let w =
    let img = Incr.image store in
    span tr ~parent:root "wal.create" (fun _ -> Resil.Wal.create ~dir img)
  in
  let w_apply = ref 0. and repaired = ref 0 and overdeleted = ref 0 and rederived = ref 0 in
  let image_bytes = ref 0 and rotations = ref 0 in
  List.iteri
    (fun k line ->
      let seq = k + 1 in
      incr attempted;
      let op =
        match Syntax.Parser.parse_mutations line with
        | [ Syntax.Parser.Add f ] -> Incr.Insert f
        | [ Syntax.Parser.Del f ] -> Incr.Delete f
        | _ -> Drive.fail "bad mutation %s" line
      in
      let top = enter tr ~parent:root ~req:seq "mutation" in
      span tr ~parent:top ~req:seq "wal.append" (fun _ -> Resil.Wal.append w (Resil.Wal.Op (seq, op)));
      let eff, wd =
        words (fun () -> span tr ~parent:top ~req:seq "incr.apply" (fun _ -> Incr.apply store op))
      in
      w_apply := !w_apply +. wd;
      if eff.Incr.e_noop then bad ("no-op mutation " ^ line);
      repaired := !repaired + eff.Incr.e_repaired;
      overdeleted := !overdeleted + eff.Incr.e_overdeleted;
      rederived := !rederived + eff.Incr.e_rederived;
      if seq mod checkpoint_every = 0 then begin
        let img = span tr ~parent:top ~req:seq "incr.image" (fun _ -> Incr.image store) in
        span tr ~parent:top ~req:seq "wal.rotate" (fun _ -> Resil.Wal.rotate w ~seq img);
        image_bytes := !image_bytes + file_size (Filename.concat dir (Printf.sprintf "image-%d.json" seq));
        incr rotations
      end;
      exit tr top)
    log;
  Resil.Wal.close w;
  Drive.rm_rf dir;
  let expected =
    let p = Syntax.Parser.parse (program_of s final_base) in
    Oracle.skeleton (Oracle.chase p (Syntax.Parser.database p))
  in
  if Oracle.skeleton (Incr.instance store) <> expected then bad "final maintained store";
  (* -- the cost of one recorded span -- *)
  let probe = tracer () in
  let k = 100_000 in
  let t0 = now () in
  for _ = 1 to k do
    exit probe (enter probe "probe")
  done;
  let span_ns = (now () -. t0) /. float k *. 1e9 in
  exit tr root;
  write tr (Filename.concat work "trace.tsv");
  (* -- metrics -- *)
  let self = self_times tr in
  let mean_us name =
    let s, c = self name in
    s /. float c *. 1e6
  in
  let total_s name = fst (self name) in
  let per x n = float x /. float n in
  let fn = float nreq and fm = float nmut in
  let ms =
    [
      ("parser.program_s", total_s "parser.program", "s", "setup_s on point-distinct, scan-repeat");
      ("saturate.chase_s", total_s "saturate.chase", "s", setup_pd);
      ("saturate.minor_mwords", chase_mwords, "Mwords", setup_pd);
      ("saturate.triggers", float triggers, "count", setup_pd);
      ("saturate.joiner_candidates", float (count "joiner.candidates"), "count", setup_pd);
      ("saturate.index_probes", float (count "index.probes"), "count", setup_pd);
      ("saturate.dup_ratio", per dups (inserts + dups), "ratio", setup_pd);
      ("snapshot.freeze_s", total_s "snapshot.freeze", "s", setup_pd);
      ("snapshot.view_s", total_s "snapshot.view", "s", setup_pd);
      ("incr.create_s", total_s "incr.create", "s", setup_sc);
      ("wal.create_s", total_s "wal.create", "s", setup_sc);
      ("protocol.parse_us", mean_us "protocol.parse", "us", parse_pd);
      ("protocol.parse_words", !w_parse /. fn, "words", parse_pd);
      ("enumerate.eval_us", mean_us "enumerate.eval", "us", eval_both);
      ("enumerate.eval_words", !w_eval /. fn, "words", eval_both);
      ("enumerate.probes_per_req", per !probes nreq, "count", eval_both);
      ("enumerate.candidates_per_req", per !candidates nreq, "count", eval_both);
      ("enumerate.answers_per_req", per !answers nreq, "count", eval_both);
      ("enumerate.yield", per !answers (max 1 !candidates), "ratio", eval_both);
      ("enumerate.sort_us", mean_us "enumerate.sort", "us", scan);
      ("enumerate.sort_words", !w_sort /. fn, "words", scan);
      ("protocol.render_us", mean_us "protocol.render", "us", scan);
      ("protocol.render_words", !w_render /. fn, "words", scan);
      ("protocol.reply_bytes", per !reply_bytes nreq, "bytes", scan);
      ("daemon.words_per_req", dw.Server.Daemon.minor_words /. fn, "words", "cpu_us_per_op on scan-repeat, point-distinct");
      ("daemon.overhead_us", overhead_us, "us", "cpu_us_per_op on point-distinct");
      ("incr.apply_us", mean_us "incr.apply", "us", apply_sc);
      ("incr.apply_words", !w_apply /. fm, "words", apply_sc);
      ("incr.repaired_per_mut", per !repaired nmut, "count", apply_sc);
      ("incr.overdeleted_per_mut", per !overdeleted nmut, "count", apply_sc);
      ("incr.rederived_per_mut", per !rederived nmut, "count", apply_sc);
      ("wal.append_us", mean_us "wal.append", "us", apply_sc);
      ("incr.image_ms", mean_us "incr.image" /. 1e3, "ms", rotate_sc);
      ("wal.rotate_ms", mean_us "wal.rotate" /. 1e3, "ms", rotate_sc);
      ("wal.image_bytes", per !image_bytes (max 1 !rotations), "bytes", rotate_sc);
      ("wal.rotations", float !rotations, "count", rotate_sc);
      ("trace.span_ns", span_ns, "ns", "no end-to-end metric: the cost of tracing, which they run without");
    ]
  in
  (* each metric beside the end-to-end metric it should move, and where *)
  Printf.printf "%s traced run: %d requests, %d mutations, %d spans (cores %d)\n" s.name nreq nmut
    tr.n (Domain.recommended_domain_count ());
  List.iter
    (fun (name, v, unit, moves) -> Printf.printf "  %-28s %14.6g %-6s -> %s\n" name v unit moves)
    ms;
  Option.iter (Printf.printf "  first failure: %s\n") !first_bad;
  record
    [
      ("traced_requests", string_of_int nreq);
      ("traced_mutations", string_of_int nmut);
      ("spans", string_of_int tr.n);
      ("trace_file", Printf.sprintf "%S" (Filename.concat work "trace.tsv"));
    ];
  result ~correct:(!failed = 0) ~attempted:!attempted ~failed:!failed
    (List.map (fun (name, v, unit, _) -> (name, v, unit)) ms)
