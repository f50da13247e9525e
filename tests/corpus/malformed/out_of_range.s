! Literals that do not fit in 64 bits: each is a line error at the
! literal's column, never a clamped value or an overflowing sum.
.text
big:
	ld	[%o0+9223372036854775807+9223372036854775807], %o1	! sum overflows
	add	%g1, 99999999999999999999, %g2	! beyond int64
	ld	[%o0+9223372036854775807], %o1	! fits: a simm13 warning only
	nop
