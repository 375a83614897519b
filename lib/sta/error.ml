type t =
  | Parse of { file : string option; line : int; message : string }
  | Build of string
  | Cycle of string
  | Pass of string
  | Timeout of float
  | Io of string
  | Invalid of string

exception Error of t

let code = function
  | Parse _ -> "parse"
  | Build _ -> "build"
  | Cycle _ -> "cycle"
  | Pass _ -> "pass"
  | Timeout _ -> "timeout"
  | Io _ -> "io"
  | Invalid _ -> "invalid"

let to_string = function
  | Parse { file; line; message } ->
    let where =
      match file, line with
      | Some file, line when line > 0 -> Printf.sprintf "%s:%d: " file line
      | Some file, _ -> Printf.sprintf "%s: " file
      | None, line when line > 0 -> Printf.sprintf "line %d: " line
      | None, _ -> ""
    in
    Printf.sprintf "parse error: %s%s" where message
  | Build message -> Printf.sprintf "build error: %s" message
  | Cycle message -> Printf.sprintf "cycle error: %s" message
  | Pass message -> Printf.sprintf "pass error: %s" message
  | Timeout seconds -> Printf.sprintf "timeout: exceeded %gs budget" seconds
  | Io message -> Printf.sprintf "io error: %s" message
  | Invalid message -> Printf.sprintf "invalid: %s" message

let of_exn = function
  | Error t -> Some t
  | Hb_util.Text.Parse_error { line; message } ->
    Some (Parse { file = None; line; message })
  | Hb_util.Json.Parse_error { position; message } ->
    Some (Parse { file = None; line = 0;
                  message = Printf.sprintf "at byte %d: %s" position message })
  | Elements.Build_error message -> Some (Build message)
  | Config.Config_error message -> Some (Build message)
  | Cluster.Cycle_error message -> Some (Cycle message)
  | Passes.Pass_error message -> Some (Pass message)
  | Hb_util.Timeout.Timeout seconds -> Some (Timeout seconds)
  | Sys_error message -> Some (Io message)
  | Failure message -> Some (Invalid message)
  | Invalid_argument message -> Some (Invalid message)
  | _ -> None

let in_file file = function
  | Parse { file = None; line; message } -> Parse { file = Some file; line; message }
  | other -> other

let wrap f =
  match f () with
  | value -> Ok value
  | exception e ->
    (match of_exn e with
     | Some t -> Result.Error t
     | None ->
       let bt = Printexc.get_raw_backtrace () in
       Printexc.raise_with_backtrace e bt)

let reading path f =
  match wrap f with
  | Ok value -> value
  | Result.Error t -> raise (Error (in_file path t))
