; Two trips of a loop with a load, a store and an FPU multiply: the
; program behind pipe-sim-trace.txt (see README.md).
        lim  r1, 0x100      ; data pointer
        lim  r5, -4096      ; the FPU window
        lui  r2, 0x4000     ; 2.0
        lim  r3, 2          ; trips
        lbr  b0, top
top:    sta  r1, 0
        or   r7, r3, r3     ; store the trip count
        ldw  r1, 0          ; and load it back
        sta  r5, 0          ; FPU operand A: the loaded word
        or   r7, r7, r7
        sta  r5, 4          ; multiply it by 2.0
        or   r7, r2, r2
        or   r4, r7, r7     ; the product
        addi r1, r1, 4
        subi r3, r3, 1
        pbr.nez b0, r3, 1
        nop
        halt
