(** Write-ahead mutation log; see the interface for the format and the
    durability contract. *)

open Relational
module J = Obs.Json

type record = Op of int * Incr.op | Quarantine of int

type t = {
  dir : string;
  mutable fd : Unix.file_descr;
  mutable oc : out_channel;
  mutable seg : string;  (* path of the open segment *)
}

(* ---- file naming ------------------------------------------------------ *)

let image_name seq = Printf.sprintf "image-%d.json" seq
let segment_name seq = Printf.sprintf "wal-%d.log" seq
let ( / ) = Filename.concat

(* [parse_name ~prefix ~suffix name] — the sequence number of a WAL file
   name, [None] for anything else (including [.tmp] leftovers). *)
let parse_name ~prefix ~suffix name =
  let lp = String.length prefix and ls = String.length suffix in
  let l = String.length name in
  if l > lp + ls && String.sub name 0 lp = prefix && String.sub name (l - ls) ls = suffix
  then int_of_string_opt (String.sub name lp (l - lp - ls))
  else None

let scan dir =
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  let images = ref [] and segs = ref [] in
  Array.iter
    (fun name ->
      (match parse_name ~prefix:"image-" ~suffix:".json" name with
      | Some seq -> images := seq :: !images
      | None -> ());
      match parse_name ~prefix:"wal-" ~suffix:".log" name with
      | Some seq -> segs := seq :: !segs
      | None -> ())
    entries;
  ( List.sort (fun a b -> compare (b : int) a) !images (* newest first *),
    List.sort compare !segs (* oldest first *) )

let is_empty ~dir = fst (scan dir) = []

(* ---- record codec ----------------------------------------------------- *)

let bare_fact_of_json j =
  match (J.member "p" j, J.member "a" j) with
  | Some (J.String p), Some (J.List args) ->
      let rec decode acc = function
        | [] -> Ok (Fact.make p (List.rev acc))
        | a :: rest -> (
            match Checkpoint.const_of_json a with
            | Ok c -> decode (c :: acc) rest
            | Error _ as e -> e)
      in
      decode [] args
  | _ -> Error (Printf.sprintf "wal: bad fact %s" (J.to_string j))

let record_to_json = function
  | Op (seq, op) ->
      let k, f =
        match op with Incr.Insert f -> ("+", f) | Incr.Delete f -> ("-", f)
      in
      J.Obj
        [
          ("s", J.Int seq);
          ("k", J.String k);
          ("p", J.String (Fact.pred f));
          ("a", J.List (List.map Checkpoint.const_to_json (Fact.args f)));
        ]
  | Quarantine seq -> J.Obj [ ("s", J.Int seq); ("k", J.String "q") ]

let record_of_json j =
  match (J.member "s" j, J.member "k" j) with
  | Some (J.Int seq), Some (J.String "q") -> Ok (Quarantine seq)
  | Some (J.Int seq), Some (J.String (("+" | "-") as k)) ->
      Result.map
        (fun f ->
          Op (seq, if k = "+" then Incr.Insert f else Incr.Delete f))
        (bare_fact_of_json j)
  | _ -> Error (Printf.sprintf "wal: bad record %s" (J.to_string j))

(* ---- writing ---------------------------------------------------------- *)

(* Make renames, creations and removals in [dir] durable. Directory
   fsync is how POSIX persists a directory entry; a filesystem that
   cannot fsync a directory (EINVAL) has no stronger call to offer. *)
let fsync_dir dir =
  let fd = Unix.openfile dir [ O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      try Unix.fsync fd with Unix.Unix_error (Unix.EINVAL, _, _) -> ())

(* An image file is framed like a record: [<crc32-hex8> <bytes>\n]. *)
let write_image dir seq image =
  let path = dir / image_name seq in
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Crc32.to_hex (Crc32.string image));
      output_char oc ' ';
      output_string oc image;
      output_char oc '\n';
      flush oc;
      Unix.fsync fd);
  Sys.rename tmp path;
  fsync_dir dir

let open_segment path =
  let fd = Unix.openfile path [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  (fd, Unix.out_channel_of_descr fd)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ~dir image =
  mkdir_p dir;
  (match scan dir with
  | [], [] -> ()
  | _ ->
      invalid_arg
        (Printf.sprintf
           "wal: %s already holds a WAL — pass --recover to resume it, or \
            point --wal at a fresh directory"
           dir));
  write_image dir 0 image;
  let seg = dir / segment_name 0 in
  let fd, oc = open_segment seg in
  fsync_dir dir;
  { dir; fd; oc; seg }

let reopen ~dir =
  let images, segs = scan dir in
  match images with
  | [] -> invalid_arg (Printf.sprintf "wal: %s holds no image" dir)
  | newest_image :: _ ->
      let base =
        match List.rev segs with seq :: _ -> seq | [] -> newest_image
      in
      let seg = dir / segment_name base in
      let fd, oc = open_segment seg in
      { dir; fd; oc; seg }

let append t record =
  (* crash window 1: nothing written yet — the mutation simply never
     reached the log *)
  Obs.Probe.hit "wal.append";
  let payload = J.to_string (record_to_json record) in
  let line = Crc32.to_hex (Crc32.string payload) ^ " " ^ payload in
  output_string t.oc line;
  flush t.oc;
  (* crash window 2: the body is on disk without its newline — a torn
     record, truncated by recovery *)
  Obs.Probe.hit "wal.fsync";
  output_char t.oc '\n';
  flush t.oc;
  Unix.fsync t.fd

let rotate t ~seq image =
  write_image t.dir seq image;
  close_out_noerr t.oc;
  let seg = t.dir / segment_name seq in
  let fd, oc = open_segment seg in
  t.fd <- fd;
  t.oc <- oc;
  t.seg <- seg;
  (* the new image and segment are durable entries before anything
     older goes: a power loss leaves the old set or the new one *)
  fsync_dir t.dir;
  let images, segs = scan t.dir in
  List.iter
    (fun s -> if s < seq then Sys.remove (t.dir / image_name s))
    images;
  List.iter (fun s -> if s < seq then Sys.remove (t.dir / segment_name s)) segs

let close t = close_out_noerr t.oc

(* ---- recovery --------------------------------------------------------- *)

type recovery = {
  rec_image : string;
  rec_image_seq : int;
  rec_ops : (int * Incr.op) list;
  rec_quarantined : int list;
  rec_last_seq : int;
  rec_truncated : int;
  rec_skipped_images : int;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The image bytes of a framed image file, checksum verified. *)
let load_image path =
  match read_file path with
  | exception Sys_error msg -> Error (Printf.sprintf "wal: %s" msg)
  | contents ->
      let n = String.length contents in
      if n > 0 && contents.[0] = '{' then
        Error
          (Printf.sprintf
             "wal: %s is an unframed image from before image version 3 — \
              finish this WAL with the binary that wrote it"
             path)
      else if n < 10 || contents.[8] <> ' ' || contents.[n - 1] <> '\n' then
        Error (Printf.sprintf "wal: %s: malformed image frame" path)
      else
        let image = String.sub contents 9 (n - 10) in
        match Crc32.of_hex (String.sub contents 0 8) with
        | Some crc when crc = Crc32.string image -> Ok image
        | Some _ -> Error (Printf.sprintf "wal: %s: image checksum mismatch" path)
        | None -> Error (Printf.sprintf "wal: %s: malformed image frame" path)

let decode_line line =
  match String.index_opt line ' ' with
  | None -> Error "wal: record without checksum"
  | Some sp -> (
      let crc = String.sub line 0 sp in
      let payload = String.sub line (sp + 1) (String.length line - sp - 1) in
      match Crc32.of_hex crc with
      | None -> Error "wal: malformed checksum"
      | Some crc ->
          if crc <> Crc32.string payload then Error "wal: checksum mismatch"
          else Result.bind (J.parse payload) record_of_json)

(* Read one segment. Only the final line of the final segment may be
   torn (missing newline or failing its checksum): it is physically
   truncated away and counted. Anything else malformed is corruption. *)
let read_segment ~last path =
  let contents = read_file path in
  let n = String.length contents in
  let records = ref [] and truncated = ref 0 in
  let err = ref None in
  let pos = ref 0 and lineno = ref 0 in
  while !err = None && !pos < n do
    incr lineno;
    let nl = String.index_from_opt contents !pos '\n' in
    let start = !pos in
    let line, complete =
      match nl with
      | Some e ->
          pos := e + 1;
          (String.sub contents start (e - start), true)
      | None ->
          pos := n;
          (String.sub contents start (n - start), false)
    in
    if line <> "" || complete then
      match decode_line line with
      | Ok r when complete -> records := r :: !records
      | Ok _ | Error _ ->
          if last && !pos >= n then begin
            (* torn tail: drop it from the file so appends resume on a
               clean boundary *)
            (try Unix.truncate path start with Unix.Unix_error _ -> ());
            incr truncated
          end
          else
            err :=
              Some
                (Printf.sprintf "wal: corrupt record at %s:%d" path !lineno)
  done;
  match !err with
  | Some e -> Error e
  | None -> Ok (List.rev !records, !truncated)

let recover ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Printf.sprintf "wal: no such directory %s" dir)
  else
    let images, segs = scan dir in
    (* newest image that decodes; corrupt newer ones are fallen past *)
    let rec pick skipped = function
      | [] -> Error "wal: no image decodes"
      | seq :: rest -> (
          match load_image (dir / image_name seq) with
          | Ok im -> Ok (seq, im, skipped)
          | Error msg -> if rest = [] then Error msg else pick (skipped + 1) rest)
    in
    match pick 0 images with
    | Error _ as e -> e
    | Ok (image_seq, image, skipped) -> (
        let rec read_all acc truncated = function
          | [] -> Ok (List.concat (List.rev acc), truncated)
          | seg :: rest -> (
              match
                read_segment ~last:(rest = []) (dir / segment_name seg)
              with
              | Ok (records, t) -> read_all (records :: acc) (truncated + t) rest
              | Error _ as e -> e)
        in
        match read_all [] 0 segs with
        | Error _ as e -> e
        | Ok (records, truncated) ->
            let quarantined =
              List.filter_map
                (function Quarantine s -> Some s | Op _ -> None)
                records
            in
            let last_seq =
              List.fold_left
                (fun acc r ->
                  max acc (match r with Op (s, _) | Quarantine s -> s))
                image_seq records
            in
            let ops =
              List.sort
                (fun (a, _) (b, _) -> compare (a : int) b)
                (List.filter_map
                   (function
                     | Op (s, op)
                       when s > image_seq && not (List.mem s quarantined) ->
                         Some (s, op)
                     | _ -> None)
                   records)
            in
            Ok
              {
                rec_image = image;
                rec_image_seq = image_seq;
                rec_ops = ops;
                rec_quarantined = List.sort compare quarantined;
                rec_last_seq = last_seq;
                rec_truncated = truncated;
                rec_skipped_images = skipped;
              })
