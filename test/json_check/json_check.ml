(* Minimal RFC 8259 well-formedness checker: enough to prove the
   exporters emit parseable JSON without a json-library dependency.
   Linked by test_obs and bench_fleet. *)
let valid s =
  let n = String.length s in
  let pos = ref 0 in
  let fail = ref false in
  let peek () = if !pos < n then s.[!pos] else '\255' in
  let adv () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c = if peek () = c then adv () else fail := true in
  let hex c =
    (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
  in
  let string_lit () =
    expect '"';
    let fin = ref false in
    while (not !fin) && not !fail do
      if !pos >= n then fail := true
      else
        match s.[!pos] with
        | '"' ->
            adv ();
            fin := true
        | '\\' -> (
            adv ();
            match peek () with
            | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> adv ()
            | 'u' ->
                adv ();
                for _ = 1 to 4 do
                  if !pos < n && hex s.[!pos] then adv () else fail := true
                done
            | _ -> fail := true)
        | c when Char.code c < 0x20 -> fail := true
        | _ -> adv ()
    done
  in
  let number () =
    if peek () = '-' then adv ();
    let digits () =
      if not (peek () >= '0' && peek () <= '9') then fail := true;
      while peek () >= '0' && peek () <= '9' do
        adv ()
      done
    in
    digits ();
    if peek () = '.' then begin
      adv ();
      digits ()
    end;
    match peek () with
    | 'e' | 'E' ->
        adv ();
        (match peek () with '+' | '-' -> adv () | _ -> ());
        digits ()
    | _ -> ()
  in
  let literal lit =
    let ln = String.length lit in
    if !pos + ln <= n && String.sub s !pos ln = lit then pos := !pos + ln
    else fail := true
  in
  let rec value d =
    if d > 64 || !fail then fail := true
    else begin
      skip_ws ();
      match peek () with
      | '{' ->
          adv ();
          skip_ws ();
          if peek () = '}' then adv ()
          else begin
            let cont = ref true in
            while !cont && not !fail do
              skip_ws ();
              string_lit ();
              skip_ws ();
              expect ':';
              value (d + 1);
              skip_ws ();
              match peek () with
              | ',' -> adv ()
              | '}' ->
                  adv ();
                  cont := false
              | _ -> fail := true
            done
          end
      | '[' ->
          adv ();
          skip_ws ();
          if peek () = ']' then adv ()
          else begin
            let cont = ref true in
            while !cont && not !fail do
              value (d + 1);
              skip_ws ();
              match peek () with
              | ',' -> adv ()
              | ']' ->
                  adv ();
                  cont := false
              | _ -> fail := true
            done
          end
      | '"' -> string_lit ()
      | 't' -> literal "true"
      | 'f' -> literal "false"
      | 'n' -> literal "null"
      | _ -> number ()
    end
  in
  value 0;
  skip_ws ();
  (not !fail) && !pos = n
