(** CRC-32 (IEEE 802.3); see the interface. Plain OCaml ints carry the
    32-bit state — [lsr] never widens it and the final mask keeps the
    result in [0, 2^32) on 64-bit hosts.

    Slicing-by-4: [tables] holds four 256-entry tables back to back;
    table 0 is the classic bytewise table, and entry [n] of table [k]
    advances the CRC of byte [n] over [k] further zero bytes. One step
    then folds four bytes with four lookups, and the last [len mod 4]
    bytes go through table 0 one at a time. *)

let tables =
  lazy
    (let t = Array.make 1024 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for n = 0 to 255 do
       for k = 1 to 3 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
       done
     done;
     t)

let string s =
  let t = Lazy.force tables in
  let byte i = Char.code (String.unsafe_get s i) in
  let n = String.length s in
  let c = ref 0xFFFFFFFF and i = ref 0 in
  while !i + 4 <= n do
    let j = !i in
    let x =
      !c lxor (byte j lor (byte (j + 1) lsl 8) lor (byte (j + 2) lsl 16) lor (byte (j + 3) lsl 24))
    in
    c :=
      Array.unsafe_get t (768 + (x land 0xFF))
      lxor Array.unsafe_get t (512 + ((x lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((x lsr 16) land 0xFF))
      lxor Array.unsafe_get t (x lsr 24);
    i := j + 4
  done;
  for j = !i to n - 1 do
    c := Array.unsafe_get t ((!c lxor byte j) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

let to_hex v = Printf.sprintf "%08x" (v land 0xFFFFFFFF)

let of_hex s =
  if String.length s <> 8 then None
  else
    let ok =
      String.for_all
        (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false)
        s
    in
    if ok then int_of_string_opt ("0x" ^ s) else None
