package asm

import (
	"fmt"
	"strings"

	"blockpilot/internal/evm"
)

// Disassemble renders bytecode as one instruction per line (diagnostics).
func Disassemble(code []byte) string {
	var b strings.Builder
	for i := 0; i < len(code); {
		op := evm.OpCode(code[i])
		fmt.Fprintf(&b, "%04x: %s", i, op.String())
		if op >= evm.PUSH1 && op <= evm.PUSH32 {
			n := int(op-evm.PUSH1) + 1
			end := i + 1 + n
			if end > len(code) {
				end = len(code)
			}
			fmt.Fprintf(&b, " 0x%x", code[i+1:end])
			i = end
		} else {
			i++
		}
		b.WriteByte('\n')
	}
	return b.String()
}
