#include "textflag.h"

// filterPack is VPSHUFB's control for each mask of four compares: entry
// m moves the row numbers of m's set lanes, in order, to the front.
DATA filterPack<>+0x00(SB)/8, $0x8080808080808080
DATA filterPack<>+0x08(SB)/8, $0x8080808080808080
DATA filterPack<>+0x10(SB)/8, $0x8080808003020100
DATA filterPack<>+0x18(SB)/8, $0x8080808080808080
DATA filterPack<>+0x20(SB)/8, $0x8080808007060504
DATA filterPack<>+0x28(SB)/8, $0x8080808080808080
DATA filterPack<>+0x30(SB)/8, $0x0706050403020100
DATA filterPack<>+0x38(SB)/8, $0x8080808080808080
DATA filterPack<>+0x40(SB)/8, $0x808080800b0a0908
DATA filterPack<>+0x48(SB)/8, $0x8080808080808080
DATA filterPack<>+0x50(SB)/8, $0x0b0a090803020100
DATA filterPack<>+0x58(SB)/8, $0x8080808080808080
DATA filterPack<>+0x60(SB)/8, $0x0b0a090807060504
DATA filterPack<>+0x68(SB)/8, $0x8080808080808080
DATA filterPack<>+0x70(SB)/8, $0x0706050403020100
DATA filterPack<>+0x78(SB)/8, $0x808080800b0a0908
DATA filterPack<>+0x80(SB)/8, $0x808080800f0e0d0c
DATA filterPack<>+0x88(SB)/8, $0x8080808080808080
DATA filterPack<>+0x90(SB)/8, $0x0f0e0d0c03020100
DATA filterPack<>+0x98(SB)/8, $0x8080808080808080
DATA filterPack<>+0xa0(SB)/8, $0x0f0e0d0c07060504
DATA filterPack<>+0xa8(SB)/8, $0x8080808080808080
DATA filterPack<>+0xb0(SB)/8, $0x0706050403020100
DATA filterPack<>+0xb8(SB)/8, $0x808080800f0e0d0c
DATA filterPack<>+0xc0(SB)/8, $0x0f0e0d0c0b0a0908
DATA filterPack<>+0xc8(SB)/8, $0x8080808080808080
DATA filterPack<>+0xd0(SB)/8, $0x0b0a090803020100
DATA filterPack<>+0xd8(SB)/8, $0x808080800f0e0d0c
DATA filterPack<>+0xe0(SB)/8, $0x0b0a090807060504
DATA filterPack<>+0xe8(SB)/8, $0x808080800f0e0d0c
DATA filterPack<>+0xf0(SB)/8, $0x0706050403020100
DATA filterPack<>+0xf8(SB)/8, $0x0f0e0d0c0b0a0908
GLOBL filterPack<>(SB), RODATA|NOPTR, $256

// filterRows is the row numbers of the first block; filterStep moves
// them on by a block.
DATA filterRows<>+0x00(SB)/8, $0x0000000100000000
DATA filterRows<>+0x08(SB)/8, $0x0000000300000002
GLOBL filterRows<>(SB), RODATA|NOPTR, $16
DATA filterStep<>+0x00(SB)/8, $0x0000000400000004
DATA filterStep<>+0x08(SB)/8, $0x0000000400000004
GLOBL filterStep<>(SB), RODATA|NOPTR, $16

// func filterBetweenAVX2(dst *int32, left *float64, n int, lo, hi float64) int
TEXT ·filterBetweenAVX2(SB), NOSPLIT, $0-48
	MOVQ         dst+0(FP), DI
	MOVQ         left+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD lo+24(FP), Y0
	VBROADCASTSD hi+32(FP), Y1
	VMOVDQU      filterRows<>(SB), X2
	VMOVDQU      filterStep<>(SB), X3
	LEAQ         filterPack<>(SB), R8
	XORQ         AX, AX // i, the block's first row
	XORQ         DX, DX // k, the rows written
	TESTQ        CX, CX
	JLE          done

loop:
	VMOVUPD   (SI)(AX*8), Y4
	VCMPPD    $0x1d, Y0, Y4, Y5 // GE_OQ: left[i+j] >= lo, false on a NaN
	VCMPPD    $0x12, Y1, Y4, Y6 // LE_OQ: left[i+j] <= hi, false on a NaN
	VANDPD    Y5, Y6, Y5
	VMOVMSKPD Y5, BX
	POPCNTL   BX, R9
	SHLQ      $4, BX
	VPSHUFB   (R8)(BX*1), X2, X7
	VMOVDQU   X7, (DI)(DX*4) // dst[k:k+4]: k <= i, so inside the n rows
	ADDQ      R9, DX
	VPADDD    X3, X2, X2
	ADDQ      $4, AX
	CMPQ      AX, CX
	JLT       loop

done:
	VZEROUPPER
	MOVQ DX, ret+40(FP)
	RET

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL  AX, AX
	XORL  CX, CX
	CPUID
	CMPL  AX, $7
	JLT   no
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18800000, CX // OSXSAVE (27), AVX (28), POPCNT (23)
	CMPL  CX, $0x18800000
	JNE   no
	XORL  CX, CX
	XGETBV                // XCR0: the OS saves the XMM and YMM state
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	SHRL  $5, BX          // AVX2
	ANDL  $1, BX
	MOVB  BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
