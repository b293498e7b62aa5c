// Package asm implements a small two-pass EVM assembler used to author the
// workload contracts (token, AMM pair, compute mixer) and EVM tests in
// readable mnemonic form.
//
// Syntax, one instruction per line:
//
//	; comment (also "//")
//	label:            ; define a jump target (must precede a JUMPDEST)
//	PUSH1 0x40        ; explicit width, hex or decimal immediate
//	PUSH 1000000      ; smallest width chosen automatically
//	PUSH @label       ; 2-byte label address
//	SSTORE
//
// Labels are resolved in a second pass; PUSH @label always assembles to a
// PUSH2 so offsets are stable.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"blockpilot/internal/evm"
	"blockpilot/internal/uint256"
)

type item struct {
	op        evm.OpCode
	immediate []byte
	labelRef  string // non-empty for PUSH @label
	labelDef  string // non-empty for a label definition
	line      int
}

// Assemble translates assembly source to bytecode.
func Assemble(src string) ([]byte, error) {
	items, err := parse(src)
	if err != nil {
		return nil, err
	}
	// First pass: compute offsets.
	labels := make(map[string]int)
	offset := 0
	for _, it := range items {
		if it.labelDef != "" {
			if _, dup := labels[it.labelDef]; dup {
				return nil, fmt.Errorf("asm: line %d: duplicate label %q", it.line, it.labelDef)
			}
			labels[it.labelDef] = offset
			continue
		}
		offset += 1 + len(it.immediate)
		if it.labelRef != "" {
			offset += 2 // PUSH2 immediate
		}
	}
	// Second pass: emit.
	out := make([]byte, 0, offset)
	for _, it := range items {
		if it.labelDef != "" {
			continue
		}
		if it.labelRef != "" {
			target, ok := labels[it.labelRef]
			if !ok {
				return nil, fmt.Errorf("asm: line %d: undefined label %q", it.line, it.labelRef)
			}
			out = append(out, byte(evm.PUSH1+1), byte(target>>8), byte(target))
			continue
		}
		out = append(out, byte(it.op))
		out = append(out, it.immediate...)
	}
	return out, nil
}

// MustAssemble is Assemble that panics on error (for statically known code).
func MustAssemble(src string) []byte {
	code, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return code
}

func parse(src string) ([]item, error) {
	var items []item
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.Index(line, ";"); i >= 0 {
			line = line[:i]
		}
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Label definition.
		if strings.HasSuffix(line, ":") && !strings.ContainsAny(line[:len(line)-1], " \t") {
			items = append(items, item{labelDef: line[:len(line)-1], line: lineNo + 1})
			continue
		}
		fields := strings.Fields(line)
		mnemonic := strings.ToUpper(fields[0])

		// PUSH @label
		if len(fields) == 2 && strings.HasPrefix(fields[1], "@") {
			if mnemonic != "PUSH" && mnemonic != "PUSH2" {
				return nil, fmt.Errorf("asm: line %d: label operand requires PUSH", lineNo+1)
			}
			items = append(items, item{labelRef: fields[1][1:], line: lineNo + 1})
			continue
		}

		// PUSH with auto width.
		if mnemonic == "PUSH" {
			if len(fields) != 2 {
				return nil, fmt.Errorf("asm: line %d: PUSH needs an operand", lineNo+1)
			}
			imm, err := parseImmediate(fields[1], 0)
			if err != nil {
				return nil, fmt.Errorf("asm: line %d: %v", lineNo+1, err)
			}
			if len(imm) == 0 {
				imm = []byte{0}
			}
			items = append(items, item{op: evm.PUSH1 + evm.OpCode(len(imm)-1), immediate: imm, line: lineNo + 1})
			continue
		}

		op, ok := evm.OpByName(mnemonic)
		if !ok {
			return nil, fmt.Errorf("asm: line %d: unknown mnemonic %q", lineNo+1, mnemonic)
		}
		it := item{op: op, line: lineNo + 1}
		if op >= evm.PUSH1 && op <= evm.PUSH32 {
			if len(fields) != 2 {
				return nil, fmt.Errorf("asm: line %d: %s needs an operand", lineNo+1, mnemonic)
			}
			width := int(op-evm.PUSH1) + 1
			imm, err := parseImmediate(fields[1], width)
			if err != nil {
				return nil, fmt.Errorf("asm: line %d: %v", lineNo+1, err)
			}
			it.immediate = imm
		} else if len(fields) != 1 {
			return nil, fmt.Errorf("asm: line %d: %s takes no operand", lineNo+1, mnemonic)
		}
		items = append(items, it)
	}
	return items, nil
}

// parseImmediate parses a hex/decimal operand. width > 0 left-pads to that
// many bytes (and rejects overflow); width == 0 returns minimal bytes.
func parseImmediate(s string, width int) ([]byte, error) {
	var v uint256.Int
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		if _, err := v.SetHex(s); err != nil {
			return nil, err
		}
	} else {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			// Large decimals: fall back to big parsing via hex? Keep simple.
			return nil, fmt.Errorf("invalid immediate %q: %v", s, err)
		}
		v.SetUint64(n)
	}
	min := v.Bytes()
	if width == 0 {
		return min, nil
	}
	if len(min) > width {
		return nil, fmt.Errorf("immediate %s does not fit in %d bytes", s, width)
	}
	out := make([]byte, width)
	copy(out[width-len(min):], min)
	return out, nil
}
