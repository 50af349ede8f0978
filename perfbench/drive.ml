(* Driving the CLI binary over its stdin/stdout pipe: process start and
   ready banner, a closed loop with a fixed window of requests in flight,
   a seeded open loop timed from each request's due time, and the serve
   mutation stream. One thread, one pipe pair; replies are checked in
   place in the read buffer, so the generator allocates little while it
   measures. *)

let now = Unix.gettimeofday

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

(* ---- line reader --------------------------------------------------------- *)

type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;  (** first unconsumed byte *)
  mutable stop : int;  (** end of the bytes read *)
  mutable eof : bool;
}

let reader fd =
  { fd; buf = Bytes.create (1 lsl 20); start = 0; stop = 0; eof = false }

(* a CLI that sends nothing for this long has hung *)
let timeout = 60.

(* one blocking read, waiting at most [timeout] seconds for data *)
let fill r =
  if r.start > 0 then begin
    Bytes.blit r.buf r.start r.buf 0 (r.stop - r.start);
    r.stop <- r.stop - r.start;
    r.start <- 0
  end;
  if r.stop = Bytes.length r.buf then begin
    let b = Bytes.create (2 * Bytes.length r.buf) in
    Bytes.blit r.buf 0 b 0 r.stop;
    r.buf <- b
  end;
  match Unix.select [ r.fd ] [] [] timeout with
  | [], _, _ -> fail "no output from the CLI for %.0f s" timeout
  | _ -> (
      match Unix.read r.fd r.buf r.stop (Bytes.length r.buf - r.stop) with
      | 0 -> r.eof <- true
      | k -> r.stop <- r.stop + k)

(* call [f buf off len] on every complete line in the buffer *)
let each_line r f =
  let i = ref r.start in
  while !i < r.stop do
    if Bytes.unsafe_get r.buf !i = '\n' then begin
      f r.buf r.start (!i - r.start);
      r.start <- !i + 1
    end;
    incr i
  done

(* the next line as a string (start-up and shutdown lines only) *)
let rec next_line r =
  match Bytes.index_from_opt r.buf r.start '\n' with
  | Some i when i < r.stop ->
      let s = Bytes.sub_string r.buf r.start (i - r.start) in
      r.start <- i + 1;
      Some s
  | _ ->
      if r.eof then None
      else begin
        fill r;
        next_line r
      end

(* ---- the CLI process ----------------------------------------------------- *)

type proc = {
  pid : int;
  to_cli : Unix.file_descr;
  rd : reader;
  t_spawn : float;
}

let spawn ~cli ~stderr_path args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile stderr_path
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let t_spawn = now () in
  let pid = Unix.create_process cli (Array.of_list (cli :: args)) in_r out_w err in
  List.iter Unix.close [ in_r; out_w; err ];
  { pid; to_cli = in_w; rd = reader out_r; t_spawn }

(* the ready banner line and the seconds from spawn to it *)
let await_banner p ~prefix =
  let rec go () =
    match next_line p.rd with
    | None -> fail "the CLI exited before its ready banner"
    | Some l when String.starts_with ~prefix l -> (l, now () -. p.t_spawn)
    | Some _ -> go ()
  in
  go ()

let write_all fd b len =
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

let close_input p = try Unix.close p.to_cli with Unix.Unix_error _ -> ()

(* wait for exit; the exit code, or a failure for a signal *)
let reap p =
  Unix.close p.rd.fd;
  match snd (Unix.waitpid [] p.pid) with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> fail "the CLI died on signal %d" s

let kill p =
  (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
  close_input p;
  ignore (try reap p with Failed _ -> 0)

(* VmHWM of a live process, in KiB *)
let vm_hwm_kib pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> None
            | l when String.starts_with ~prefix:"VmHWM:" l ->
                Scanf.sscanf l "VmHWM: %d kB" (fun k -> Some k)
            | _ -> go ()
          in
          go ())

(* CPU seconds a live process's threads have run so far: the sum of
   sum_exec_runtime in /proc/PID/task/*/schedstat. Time the process waited
   for a CPU (the run queue, or the hypervisor running another guest) is
   not in it. *)
let cpu_s pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> fail "no %s" dir
  | tasks ->
      Array.fold_left
        (fun acc t ->
          match open_in (Filename.concat dir (t ^ "/schedstat")) with
          | exception Sys_error _ -> acc (* the thread just ended *)
          | ic ->
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> Scanf.sscanf (input_line ic) "%d " (fun ns -> acc +. (float ns *. 1e-9))))
        0. tasks

(* ---- server traffic ------------------------------------------------------ *)

(* The request stream of one server process. Request ids are input line
   numbers, so id [k] is the k-th line written; [sent.(k)] is its request,
   [due.(k)] its due time (open loop), and [got.[k]] whether its reply
   arrived. *)
type stream = {
  next_req : unit -> Workloads.request;  (** the next request to send *)
  mutable sent : Workloads.request array;
  mutable due : float array;
  mutable got : Bytes.t;
  mutable n : int;  (** lines sent so far *)
  out : Buffer.t;
  corrupt : int;  (** flip a byte of the reply to this id (self-test) *)
  mutable wrong : int;  (** replies other than the expected body *)
  mutable first_bad : string option;
}

let none = { Workloads.text = ""; expected = "" }

let stream ?(corrupt = -1) next_req =
  {
    next_req;
    sent = Array.make 4096 none;
    due = Array.make 4096 0.;
    got = Bytes.make 4096 '\000';
    n = 0;
    out = Buffer.create 65536;
    corrupt;
    wrong = 0;
    first_bad = None;
  }

(* queue one request line with the given due time *)
let enqueue st due =
  st.n <- st.n + 1;
  if st.n >= Array.length st.sent then begin
    let grow a z =
      let b = Array.make (2 * Array.length a) z in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    st.sent <- grow st.sent none;
    st.due <- grow st.due 0.;
    let got = Bytes.make (2 * Bytes.length st.got) '\000' in
    Bytes.blit st.got 0 got 0 (Bytes.length st.got);
    st.got <- got
  end;
  let r = st.next_req () in
  st.sent.(st.n) <- r;
  st.due.(st.n) <- due;
  Buffer.add_string st.out r.Workloads.text;
  Buffer.add_char st.out '\n'

let flush_out st p =
  let len = Buffer.length st.out in
  if len > 0 then begin
    write_all p.to_cli (Buffer.to_bytes st.out) len;
    Buffer.clear st.out
  end

(* Check one reply line in place; returns its id. A reply that is not
   the expected body (an error, quarantined or partial reply included)
   counts as wrong. *)
let check_reply st buf off len =
  let i = ref off and id = ref 0 in
  while !i < off + len && Bytes.unsafe_get buf !i <> ' ' do
    let c = Bytes.unsafe_get buf !i in
    if c < '0' || c > '9' then fail "unparsable reply line";
    id := (10 * !id) + Char.code c - 48;
    incr i
  done;
  let id = !id in
  if id < 1 || id > st.n || Bytes.get st.got id <> '\000' then
    fail "reply to an unknown or already answered request id %d" id;
  Bytes.set st.got id '\001';
  if id = st.corrupt then
    Bytes.set buf (off + len - 1)
      (Char.chr (Char.code (Bytes.get buf (off + len - 1)) lxor 1));
  let body = !i + 1 and blen = off + len - !i - 1 in
  let exp = st.sent.(id).Workloads.expected in
  let ok =
    blen = String.length exp
    &&
    let rec go j = j = blen || (Bytes.unsafe_get buf (body + j) = exp.[j] && go (j + 1)) in
    go 0
  in
  if not ok then begin
    st.wrong <- st.wrong + 1;
    if st.first_bad = None then
      st.first_bad <-
        Some
          (Printf.sprintf "request %d %S: got %S, want %S" id
             st.sent.(id).Workloads.text
             (Bytes.sub_string buf off (min len 200))
             (String.sub exp 0 (min (String.length exp) 200)))
  end;
  id

let on_replies st p f =
  each_line p.rd (fun buf off len ->
      if len > 0 && Bytes.get buf off = '%' then ()
      else f (check_reply st buf off len))

(* Closed loop: keep between [window / 2] and [window] requests in
   flight for [seconds], then drain: whenever the replies bring the
   requests in flight down to half the window, send the other half in
   one write. Refilling in half-window bursts keeps the server's queue
   full and its reads large, so fewer reads and wake-ups fall on each
   request. Returns the replies received and the seconds from the first
   send to the last reply. *)
let closed_loop st p ~window ~seconds =
  let t0 = now () in
  let stop_at = t0 +. seconds in
  let inflight = ref 0 and replies = ref 0 in
  let refill () =
    while !inflight < window do
      enqueue st 0.;
      incr inflight
    done;
    flush_out st p
  in
  refill ();
  while !inflight > 0 do
    fill p.rd;
    if p.rd.eof then fail "the CLI closed its output mid-run";
    on_replies st p (fun _ ->
        decr inflight;
        incr replies);
    if !inflight <= window / 2 && now () < stop_at then refill ()
  done;
  (!replies, now () -. t0)

(* Open loop: [count] requests with seeded exponential inter-arrival gaps
   at [rate] per second. Returns latencies (ms, from the due time) and
   send lateness (ms, send time minus due time). *)
let open_loop st p rng ~rate ~count =
  let gaps =
    Array.init count (fun _ -> -.log (1. -. Random.State.float rng 1.) /. rate)
  in
  let lat = Array.make count 0. and late = Array.make count 0. in
  let first = st.n + 1 in
  let t0 = now () +. 0.01 in
  let due = ref t0 in
  let sent = ref 0 and replied = ref 0 in
  while !replied < count do
    let t = now () in
    while !sent < count && !due <= t do
      late.(!sent) <- (t -. !due) *. 1e3;
      enqueue st !due;
      incr sent;
      if !sent < count then due := !due +. gaps.(!sent)
    done;
    flush_out st p;
    let wait = if !sent < count then Float.max 0. (!due -. now ()) else timeout in
    match Unix.select [ p.rd.fd ] [] [] wait with
    | [], _, _ when !sent >= count -> fail "open loop: replies stopped coming"
    | [], _, _ -> ()
    | _ ->
        fill p.rd;
        if p.rd.eof then fail "the CLI closed its output mid-run";
        let t_recv = now () in
        on_replies st p (fun id ->
            if id >= first then begin
              lat.(id - first) <- (t_recv -. st.due.(id)) *. 1e3;
              incr replied
            end)
  done;
  (lat, late)

let missing st =
  let m = ref 0 in
  for id = 1 to st.n do
    if Bytes.get st.got id = '\000' then incr m
  done;
  !m

(* ---- files ------------------------------------------------------------- *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path

(* ---- the WAL's filesystem ------------------------------------------------ *)

(* "<fstype> <mount point>" of the mount holding [path] *)
let filesystem path =
  let path = try Unix.realpath path with Unix.Unix_error _ -> path in
  match open_in "/proc/self/mounts" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let best = ref ("unknown", "") in
          (try
             while true do
               match String.split_on_char ' ' (input_line ic) with
               | _ :: mnt :: ty :: _ ->
                   let under =
                     mnt = "/"
                     || path = mnt
                     || String.starts_with ~prefix:(mnt ^ "/") path
                   in
                   if under && String.length mnt >= String.length (snd !best)
                   then best := (ty, mnt)
               | _ -> ()
             done
           with End_of_file -> ());
          fst !best ^ " " ^ snd !best)
