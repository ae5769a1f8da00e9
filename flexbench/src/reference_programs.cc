/**
 * @file
 * The host-speed reference's input: the test-scale sha, bitcount and
 * basicmath kernels as the workload generators in src/workloads/
 * emitted them when flexbench/refsim/ was copied. Frozen like that
 * copy, so the reference does the same work in every build.
 */

#include "reference.h"

namespace fb {

const std::vector<std::string> &
referencePrograms()
{
    static const std::vector<std::string> programs = {
        // sha
        R"FXREF(
        .org 0x1000
_start: set 0x003ffff0, %sp
        call main
        nop
        ta 0            ; exit(%o0)
        nop

main:   save %sp, -96, %sp
        set data, %i0           ; message pointer
        set 2, %i1
        set hbuf, %i2
        set wbuf, %i3
        set 0x67452301, %l0
        st %l0, [%i2]
        set 0xefcdab89, %l0
        st %l0, [%i2+4]
        set 0x98badcfe, %l0
        st %l0, [%i2+8]
        set 0x10325476, %l0
        st %l0, [%i2+12]
        set 0xc3d2e1f0, %l0
        st %l0, [%i2+16]

block_loop:
        tst %i1
        be done_blocks
        nop

        ; W[0..15] = message words
        mov 0, %l5
sch1:   sll %l5, 2, %l6
        ld [%i0+%l6], %l7
        st %l7, [%i3+%l6]
        add %l5, 1, %l5
        cmp %l5, 16
        bne sch1
        nop

        ; W[16..79] = rotl1(W[t-3]^W[t-8]^W[t-14]^W[t-16])
        mov 16, %l5
sch2:   sll %l5, 2, %l6
        add %i3, %l6, %l7
        ld [%l7-12], %o0
        ld [%l7-32], %o1
        xor %o0, %o1, %o0
        ld [%l7-56], %o1
        xor %o0, %o1, %o0
        ld [%l7-64], %o1
        xor %o0, %o1, %o0
        sll %o0, 1, %o1
        srl %o0, 31, %o2
        or %o1, %o2, %o0
        st %o0, [%l7]
        add %l5, 1, %l5
        cmp %l5, 80
        bne sch2
        nop

        ; a..e = h0..h4
        ld [%i2], %l0
        ld [%i2+4], %l1
        ld [%i2+8], %l2
        ld [%i2+12], %l3
        ld [%i2+16], %l4

        mov 0, %l5
rounds: cmp %l5, 20
        bl f0
        nop
        cmp %l5, 40
        bl f1
        nop
        cmp %l5, 60
        bl f2
        nop
        xor %l1, %l2, %o0       ; t >= 60: parity, k3
        xor %o0, %l3, %o0
        set 0xca62c1d6, %o1
        ba fdone
        nop
f0:     and %l1, %l2, %o0       ; ch(b,c,d)
        andn %l3, %l1, %o2
        or %o0, %o2, %o0
        set 0x5a827999, %o1
        ba fdone
        nop
f1:     xor %l1, %l2, %o0       ; parity
        xor %o0, %l3, %o0
        set 0x6ed9eba1, %o1
        ba fdone
        nop
f2:     and %l1, %l2, %o0       ; maj(b,c,d)
        and %l1, %l3, %o2
        or %o0, %o2, %o0
        and %l2, %l3, %o2
        or %o0, %o2, %o0
        set 0x8f1bbcdc, %o1
fdone:  sll %l0, 5, %o2
        srl %l0, 27, %o3
        or %o2, %o3, %o2        ; rotl5(a)
        add %o2, %o0, %o2
        add %o2, %l4, %o2
        add %o2, %o1, %o2
        sll %l5, 2, %o3
        ld [%i3+%o3], %o4
        add %o2, %o4, %o2       ; temp
        mov %l3, %l4            ; e = d
        mov %l2, %l3            ; d = c
        sll %l1, 30, %o3
        srl %l1, 2, %o4
        or %o3, %o4, %l2        ; c = rotl30(b)
        mov %l0, %l1            ; b = a
        mov %o2, %l0            ; a = temp
        add %l5, 1, %l5
        cmp %l5, 80
        bne rounds
        nop

        ; h += a..e
        ld [%i2], %o0
        add %o0, %l0, %o0
        st %o0, [%i2]
        ld [%i2+4], %o0
        add %o0, %l1, %o0
        st %o0, [%i2+4]
        ld [%i2+8], %o0
        add %o0, %l2, %o0
        st %o0, [%i2+8]
        ld [%i2+12], %o0
        add %o0, %l3, %o0
        st %o0, [%i2+12]
        ld [%i2+16], %o0
        add %o0, %l4, %o0
        st %o0, [%i2+16]

        add %i0, 64, %i0
        ba block_loop
        sub %i1, 1, %i1

done_blocks:
        mov 0, %l5
prloop: sll %l5, 2, %o1
        ld [%i2+%o1], %o0
        ta 2
        mov 10, %o0
        ta 1
        add %l5, 1, %l5
        cmp %l5, 5
        bne prloop
        nop
        mov 0, %i0
        ret
        restore

        .align 4
hbuf:   .space 20
wbuf:   .space 320
data:
        .word 0x24976a6c, 0x30eaa78f, 0xc279b9e5, 0x5d14280a, 0xecec09f2, 0xf92d2d82, 0xb8ecd5d1, 0xf47a7a7f
        .word 0x9aafd105, 0xa9fa50ce, 0x763ad923, 0x1675171e, 0x5f0fada1, 0x2a6c2e7e, 0xe49b7e50, 0xa5b5df6a
        .word 0x9a5522ef, 0x9f765401, 0x644830d, 0x9bc93e52, 0xa52db7c1, 0x37a38256, 0xc94147d1, 0x54791d2
        .word 0xe52d48b9, 0xcd232654, 0x593f2c4c, 0x1d710dcd, 0x9f60138b, 0xb398bbd4, 0x2eb476b8, 0xaafc0fe7
)FXREF",
        // bitcount
        R"FXREF(
        .org 0x1000
_start: set 0x003ffff0, %sp
        call main
        nop
        ta 0            ; exit(%o0)
        nop

main:   save %sp, -96, %sp
        set vals, %i0
        set 50, %i1
        mov 0, %i5              ; total
        set fptrs, %i2

vloop:  mov 0, %l1              ; method index
mloop:  sll %l1, 2, %o2
        ld [%i2+%o2], %o3       ; method pointer
        ld [%i0], %o0           ; argument
        jmpl %o3, %o7           ; indirect call, MiBench-style
        nop
        add %i5, %o0, %i5
        add %l1, 1, %l1
        cmp %l1, 3
        bne mloop
        nop
        add %i0, 4, %i0
        subcc %i1, 1, %i1
        bne vloop
        nop

        mov %i5, %o0
        ta 2
        mov 10, %o0
        ta 1
        mov 0, %i0
        ret
        restore

        ; ---- method 1: Kernighan (leaf: %o0 -> %o0) ----
bc_kern:
        mov 0, %o1
k1:     tst %o0
        be k1d
        nop
        sub %o0, 1, %o2
        and %o0, %o2, %o0
        ba k1
        add %o1, 1, %o1
k1d:    retl
        mov %o1, %o0

        ; ---- method 2: SWAR reduction ----
bc_swar:
        srl %o0, 1, %o1
        set 0x55555555, %o2
        and %o1, %o2, %o1
        sub %o0, %o1, %o0
        set 0x33333333, %o2
        and %o0, %o2, %o1
        srl %o0, 2, %o3
        and %o3, %o2, %o3
        add %o1, %o3, %o0
        srl %o0, 4, %o1
        add %o0, %o1, %o0
        set 0x0f0f0f0f, %o2
        and %o0, %o2, %o0
        set 0x01010101, %o2
        umul %o0, %o2, %o0
        retl
        srl %o0, 24, %o0

        ; ---- method 3: nibble table ----
bc_tab: set nibtab, %o4
        mov 8, %o2
        mov 0, %o1
nt:     and %o0, 15, %o3
        ldub [%o4+%o3], %o5
        add %o1, %o5, %o1
        srl %o0, 4, %o0
        subcc %o2, 1, %o2
        bne nt
        nop
        retl
        mov %o1, %o0

        .align 4
fptrs:  .word bc_kern, bc_swar, bc_tab
nibtab:
        .word 0x10102, 0x1020203, 0x1020203, 0x2030304

vals:
        .word 0xf0d83537, 0x14f52da9, 0xb51fd889, 0x6b5318f5, 0x57eee86e, 0xedacee4, 0x64ae756f, 0xebe0e962
        .word 0xe9c1820e, 0xc5e892d9, 0xf6cf01c5, 0x74715aa1, 0x4176aee2, 0x58559d32, 0x46f93fda, 0xcbc61cb7
        .word 0x31a7d09b, 0x3e2cc4f9, 0x8a2f5501, 0x16c1e0d8, 0x4c3846db, 0xee5d0211, 0x6c5ae99e, 0x36f75df1
        .word 0xf08b8315, 0x77a8c32, 0x329c47e7, 0x352657c9, 0x27bb4ff3, 0x3b43be5f, 0x4b44d3a7, 0xb6729748
        .word 0x1d04fa5d, 0xbe5a25e5, 0x7c6bf828, 0xb25833b7, 0x6e4684f2, 0x2ec45928, 0xfa5cfff6, 0xac8fccd8
        .word 0xb790d899, 0xbdb83351, 0x558943ea, 0x310d810d, 0xb825a29a, 0xa1114758, 0x97cef7d, 0xc82cbd73
        .word 0xa74011c1, 0x5396a882
)FXREF",
        // basicmath
        R"FXREF(
        .org 0x1000
_start: set 0x003ffff0, %sp
        call main
        nop
        ta 0            ; exit(%o0)
        nop

main:   save %sp, -96, %sp
        set vals, %i0
        set 40, %i1
        mov 0, %i5              ; acc
        set 0x41c64e6d, %i2     ; C1
        set 0x3039, %i3         ; C2
        set poly, %i4

vloop:  ld [%i0], %l0           ; v
        or %l0, 1, %l1          ; m
        mov 3, %l2
mloop:  umul %l1, %i2, %o0
        srl %o0, 3, %o0
        srl %l1, 5, %o1
        add %o0, %o1, %l1
        add %l1, %i3, %l1
        subcc %l2, 1, %l2
        bne mloop
        nop

        mov 7, %l3              ; p
        mov 0, %l4
ploop:  umul %l3, %l1, %l3
        sll %l4, 2, %o0
        ld [%i4+%o0], %o1
        add %l3, %o1, %l3
        add %l4, 1, %l4
        cmp %l4, 6
        bne ploop
        nop

        or %l3, 1, %o2
        wr %g0, %y
        udiv %l0, %o2, %l5      ; q = v / (p|1)

        add %l1, %l3, %o0
        add %o0, %l5, %o0
        xor %i5, %o0, %i5

        add %i0, 4, %i0
        subcc %i1, 1, %i1
        bne vloop
        nop

        mov %i5, %o0
        ta 2
        mov 10, %o0
        ta 1
        mov 0, %i0
        ret
        restore

        .align 4
poly:   .word 0x1001, 0x20a03, 0x44071, 0x80f11, 0x10ca05, 0x2000b3
vals:
        .word 0xb19e640b, 0xd0802607, 0x3185c983, 0xede6d1cd, 0x8a8f241f, 0xcd1a8aa9, 0xeba43c87, 0xbf367509
        .word 0x8ab1395d, 0xaaa48363, 0x30d8585, 0x748d6cfd, 0xaae134ef, 0x87a00dcd, 0x24a710f, 0x6b3d2df
        .word 0x926b1bb, 0xf6a2ca27, 0xa9342f6d, 0x7a638ad7, 0x8b5d4cc9, 0x441574b9, 0xb393dbe9, 0x3e79a193
        .word 0xa07f2ce3, 0xcd0467a5, 0x802ef945, 0x6ecbafcf, 0xb5035a9f, 0xd4be178f, 0x5520aeef, 0x89d0cda9
        .word 0x54884573, 0x72c62d59, 0x7cb6fe31, 0x83c6a2df, 0xf7f12881, 0x5256d655, 0xddc7b74b, 0x84872cef
)FXREF",
    };
    return programs;
}

}  // namespace fb
