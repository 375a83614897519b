(* Versioned binary snapshot container.

   Layout (all integers big-endian via [output_binary_int]):

     bytes 0..7    magic "HBSNAP\x00\x01"
     bytes 8..11   format version
     bytes 12..27  engine fingerprint (MD5 of the running executable)
     bytes 28..31  payload length
     bytes 32..47  payload MD5
     bytes 48..    payload

   The payload digest is checked before the payload is handed back, so
   a caller can [Marshal.from_string] it without risking a crash on
   corrupt bytes. Writes go to a temp file in the target directory and
   rename into place, so a concurrent reader sees either the old or the
   new snapshot, never a torn one. *)

let magic = "HBSNAP\x00\x01"
let format_version = 1
let version_offset = String.length magic
let fingerprint_offset = version_offset + 4

let fingerprint =
  lazy
    (try Digest.file Sys.executable_name
     with Sys_error _ -> Digest.string Sys.executable_name)

let header_length = 48

let key ~path =
  let header =
    In_channel.with_open_bin path (fun ic ->
        match In_channel.really_input_string ic header_length with
        | Some header -> header
        | None ->
          In_channel.seek ic 0L;
          In_channel.input_all ic)
  in
  String.concat ""
    (List.init (String.length header) (fun i ->
         Printf.sprintf "%02x" (Char.code header.[i])))

let invalid fmt = Format.kasprintf (fun m -> Error (Error.Invalid m)) fmt

let write ~path payload =
  let dir = Filename.dirname path in
  let tmp, oc =
    try Filename.open_temp_file ~temp_dir:dir ~mode:[ Open_binary ]
          "snapshot" ".tmp"
    with Sys_error m -> raise (Error.Error (Error.Io m))
  in
  (try
     output_string oc magic;
     output_binary_int oc format_version;
     output_string oc (Lazy.force fingerprint);
     output_binary_int oc (String.length payload);
     output_string oc (Digest.string payload);
     output_string oc payload;
     close_out oc;
     Sys.rename tmp path
   with e ->
     (try close_out_noerr oc; Sys.remove tmp with Sys_error _ -> ());
     (match e with
      | Sys_error m -> raise (Error.Error (Error.Io m))
      | e -> raise e))

let read ~path =
  match open_in_bin path with
  | exception Sys_error m -> Error (Error.Io m)
  | ic ->
    let result =
      try
        let header = really_input_string ic (String.length magic) in
        if header <> magic then
          invalid "%s: not a Hummingbird snapshot" path
        else begin
          let version = input_binary_int ic in
          if version <> format_version then
            invalid
              "%s: snapshot format version %d, this engine reads version %d"
              path version format_version
          else begin
            let stamp = really_input_string ic 16 in
            if stamp <> Lazy.force fingerprint then
              invalid
                "%s: snapshot written by a different engine build; re-save it"
                path
            else begin
              let length = input_binary_int ic in
              if length < 0 then invalid "%s: corrupt payload length" path
              else begin
                let digest = really_input_string ic 16 in
                let payload = really_input_string ic length in
                if Digest.string payload <> digest then
                  invalid "%s: snapshot payload is corrupt" path
                else Ok payload
              end
            end
          end
        end
      with
      | End_of_file -> invalid "%s: truncated snapshot" path
      | Sys_error m -> Error (Error.Io m)
    in
    close_in_noerr ic;
    result
