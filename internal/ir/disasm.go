package ir

import (
	"fmt"
	"io"
)

// Disassemble writes a human-readable listing of the program — the view a
// developer gets of the "binary" ThreadFuser analyzed. Used by cmd/tftrace's
// -disasm flag and handy when debugging workload constructions or compiler
// transforms.
func Disassemble(w io.Writer, p *Program) error {
	for _, f := range p.Funcs {
		marker := ""
		if f.ID == p.Entry {
			marker = "  ; entry"
		}
		if _, err := fmt.Fprintf(w, "func %s (f%d)%s\n", f.Name, f.ID, marker); err != nil {
			return err
		}
		for _, b := range f.Blocks {
			name := b.Name
			if name != "" {
				name = " (" + name + ")"
			}
			if _, err := fmt.Fprintf(w, "  b%d%s:\n", b.ID, name); err != nil {
				return err
			}
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if _, err := fmt.Fprintf(w, "    %3d  %s\n", i, in.String()); err != nil {
					return err
				}
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
