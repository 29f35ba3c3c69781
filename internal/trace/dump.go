package trace

import (
	"fmt"
	"io"
)

// Dump writes a human-readable rendering of one thread's event stream —
// the PIN-log view of the trace. maxRecords bounds the output (0 = all).
func Dump(w io.Writer, t *Trace, tid int, maxRecords int) error {
	if tid < 0 || tid >= len(t.Threads) {
		return fmt.Errorf("trace: dump: thread %d out of range [0,%d)", tid, len(t.Threads))
	}
	th := t.Threads[tid]
	if _, err := fmt.Fprintf(w, "thread %d of %s: %d records, %d instructions\n",
		tid, t.Program, len(th.Records), th.Instructions()); err != nil {
		return err
	}
	depth := 0
	for i := range th.Records {
		if maxRecords > 0 && i >= maxRecords {
			fmt.Fprintf(w, "... %d more records\n", len(th.Records)-i)
			break
		}
		r := &th.Records[i]
		indent := fmt.Sprintf("%*s", 2*depth, "")
		switch r.Kind {
		case KindCall:
			fmt.Fprintf(w, "%scall %s\n", indent, t.FuncName(r.Callee))
			depth++
		case KindRet:
			depth--
			if depth < 0 {
				depth = 0
			}
			fmt.Fprintf(w, "%sret\n", fmt.Sprintf("%*s", 2*depth, ""))
		case KindBBL:
			fmt.Fprintf(w, "%s%s.b%d x%d", indent, t.FuncName(r.Func), r.Block, r.N)
			for _, m := range th.MemOf(i) {
				op := "ld"
				if m.Store {
					op = "st"
				}
				fmt.Fprintf(w, " [%d:%s%d@%#x]", m.Instr, op, m.Size, m.Addr)
			}
			for _, l := range th.LocksOf(i) {
				op := "lock"
				if l.Release {
					op = "unlock"
				}
				fmt.Fprintf(w, " [%d:%s@%#x]", l.Instr, op, l.Addr)
			}
			fmt.Fprintln(w)
		case KindSkip:
			fmt.Fprintf(w, "%sskip %d (%s)\n", indent, r.N, r.SkipKind)
		}
	}
	return nil
}
