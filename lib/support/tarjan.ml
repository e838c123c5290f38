let components ~n ~root ~degree ~succ emit =
  (* [index.(v)] is -1 until [v] is discovered and [max_int] once its
     component is emitted, so [index.(w) < lowlink.(v)] holds only of a
     [w] still on the stack. *)
  let index = Array.make (max 1 n) (-1) in
  let lowlink = Array.make (max 1 n) 0 in
  let stack = Array.make (max 1 n) 0 and sp = ref 0 in
  let next_index = ref 0 in
  (* Three ints a frame: a node, the index of its next edge, its degree. *)
  let frames = ref (Array.make 192 0) and fp = ref 0 in
  let discover v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    if !fp + 3 > Array.length !frames then begin
      let grown = Array.make (2 * Array.length !frames) 0 in
      Array.blit !frames 0 grown 0 !fp;
      frames := grown
    end;
    let f = !frames in
    f.(!fp) <- v;
    f.(!fp + 1) <- 0;
    f.(!fp + 2) <- degree v;
    fp := !fp + 3
  in
  for r = 0 to n - 1 do
    if index.(r) = -1 && root r then begin
      discover r;
      while !fp > 0 do
        let f = !frames and top = !fp - 3 in
        let v = f.(top) and i = f.(top + 1) in
        if i < f.(top + 2) then begin
          f.(top + 1) <- i + 1;
          let w = succ v i in
          if w >= 0 then
            if index.(w) = -1 then discover w
            else if index.(w) < lowlink.(v) then lowlink.(v) <- index.(w)
        end
        else begin
          (* [v] is exhausted: pop it, pass its lowlink to its parent, and
             close its component if it is the component's first node. *)
          fp := top;
          (if top > 0 then
             let parent = f.(top - 3) in
             if lowlink.(v) < lowlink.(parent) then lowlink.(parent) <- lowlink.(v));
          if lowlink.(v) = index.(v) then begin
            let comp = ref [] in
            while match !comp with w :: _ -> w <> v | [] -> true do
              decr sp;
              let w = stack.(!sp) in
              index.(w) <- max_int;
              comp := w :: !comp
            done;
            emit !comp
          end
        end
      done
    end
  done
