// Package report renders explanations for humans and for databases: a text
// report of the learned transformation, a record-level diff view, and an
// executable SQL migration script — the artifact commercial comparison
// tools export, except that Affidavit's version generalises (one UPDATE per
// systematically transformed attribute instead of one statement per
// record).
package report

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"affidavit/internal/delta"
	"affidavit/internal/metafunc"
)

// maxListed caps how many records a text report enumerates per category.
const maxListed = 10

// Text renders a full explanation report.
func Text(e *delta.Explanation, cm delta.CostModel) string {
	var sb strings.Builder
	inst := e.Inst
	fmt.Fprintf(&sb, "Affidavit explanation (α=%g)\n", cm.Alpha)
	fmt.Fprintf(&sb, "  source records: %d   target records: %d\n",
		inst.Source.Len(), inst.Target.Len())
	fmt.Fprintf(&sb, "  core (aligned): %d   deleted: %d   inserted: %d\n",
		e.CoreSize(), len(e.Deleted), len(e.Inserted))
	fmt.Fprintf(&sb, "  cost: %g = 2α·L(T+)=%d·|A| + 2(1−α)·L(F)=%d\n",
		cm.Cost(e), len(e.Inserted), e.FunctionLength())
	sb.WriteString("attribute functions:\n")
	for a := 0; a < inst.NumAttrs(); a++ {
		fmt.Fprintf(&sb, "  %-20s %s  (ψ=%d)\n",
			inst.Schema().Attr(a), e.Funcs[a], e.Funcs[a].Params())
	}
	listRecords(&sb, "deleted source records", e.Deleted, func(i int) string {
		return strings.Join(inst.Source.Record(i), " | ")
	})
	listRecords(&sb, "inserted target records", e.Inserted, func(i int) string {
		return strings.Join(inst.Target.Record(i), " | ")
	})
	return sb.String()
}

func listRecords(sb *strings.Builder, label string, idx []int, render func(int) string) {
	fmt.Fprintf(sb, "%s (%d):\n", label, len(idx))
	for n, i := range idx {
		if n == maxListed {
			fmt.Fprintf(sb, "  … %d more\n", len(idx)-maxListed)
			return
		}
		fmt.Fprintf(sb, "  %s\n", render(i))
	}
}

// Diff renders the aligned core as a per-record before/after view, marking
// changed cells.
func Diff(e *delta.Explanation, limit int) string {
	var sb strings.Builder
	inst := e.Inst
	if limit <= 0 || limit > e.CoreSize() {
		limit = e.CoreSize()
	}
	for i := 0; i < limit; i++ {
		s, t := e.CoreSrc[i], e.CoreTgt[i]
		fmt.Fprintf(&sb, "source[%d] ↦ target[%d]\n", s, t)
		for a := 0; a < inst.NumAttrs(); a++ {
			sv := inst.Source.Value(s, a)
			tv := inst.Target.Value(t, a)
			marker := " "
			if sv != tv {
				marker = "*"
			}
			fmt.Fprintf(&sb, "  %s %-20s %q → %q\n", marker, inst.Schema().Attr(a), sv, tv)
		}
	}
	if limit < e.CoreSize() {
		fmt.Fprintf(&sb, "… %d more aligned records\n", e.CoreSize()-limit)
	}
	return sb.String()
}

// SQL renders an executable migration script transforming the source table
// into the target snapshot: one generalising UPDATE per transformed
// attribute, then per-record DELETEs and INSERTs for the noise. tableName
// is interpolated as a quoted identifier.
func SQL(e *delta.Explanation, tableName string) string {
	return string(AppendSQL(nil, e, tableName))
}

// AppendSQL appends SQL's script to dst. The per-record statements are
// appended piece by piece from the snapshots' interned values, into room
// reserved once from the noise records' value lengths: the script costs
// no formatting and no regrowth (unless values carry quotes to double).
func AppendSQL(dst []byte, e *delta.Explanation, tableName string) []byte {
	inst := e.Inst
	tbl := quoteIdent(tableName)
	cols := make([]string, inst.NumAttrs())
	colsLen := 0
	for a := range cols {
		cols[a] = quoteIdent(inst.Schema().Attr(a))
		colsLen += len(cols[a])
	}
	var updates []byte
	for a, col := range cols {
		f := e.Funcs[a]
		if metafunc.IsIdentity(f) {
			continue
		}
		updates = append(updates, "UPDATE "...)
		updates = append(updates, tbl...)
		updates = append(updates, " SET "...)
		updates = append(updates, col...)
		updates = append(updates, " = "...)
		updates = appendExpr(updates, f, col)
		updates = append(updates, "; -- "...)
		updates = append(updates, f.String()...)
		updates = append(updates, '\n')
	}
	size := 128 + len(updates)
	for _, i := range e.Deleted {
		size += 21 + len(tbl) + colsLen + 10*len(cols)
		for a := range cols {
			size += len(inst.Source.Value(i, a))
		}
	}
	for _, t := range e.Inserted {
		size += 32 + len(tbl) + colsLen + 6*len(cols)
		for a := range cols {
			size += len(inst.Target.Value(t, a))
		}
	}
	dst = slices.Grow(dst, size+size/64)

	dst = append(dst, "-- generated by affidavit: explanation-derived migration\n-- aligned "...)
	dst = strconv.AppendInt(dst, int64(e.CoreSize()), 10)
	dst = append(dst, ", deleted "...)
	dst = strconv.AppendInt(dst, int64(len(e.Deleted)), 10)
	dst = append(dst, ", inserted "...)
	dst = strconv.AppendInt(dst, int64(len(e.Inserted)), 10)
	dst = append(dst, "\nBEGIN;\n"...)
	// Deletes first so updated keys cannot collide with noise rows.
	for _, i := range e.Deleted {
		dst = append(dst, "DELETE FROM "...)
		dst = append(dst, tbl...)
		dst = append(dst, " WHERE "...)
		for a, col := range cols {
			if a > 0 {
				dst = append(dst, " AND "...)
			}
			dst = append(dst, col...)
			dst = append(dst, " = "...)
			dst = appendQuoted(dst, '\'', inst.Source.Value(i, a))
		}
		dst = append(dst, ";\n"...)
	}
	dst = append(dst, updates...)
	insert := "INSERT INTO " + tbl + " (" + strings.Join(cols, ", ") + ") VALUES ("
	for _, t := range e.Inserted {
		dst = append(dst, insert...)
		for a := range cols {
			if a > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendQuoted(dst, '\'', inst.Target.Value(t, a))
		}
		dst = append(dst, ");\n"...)
	}
	return append(dst, "COMMIT;\n"...)
}

// appendExpr appends a portable SQL expression computing f over col. Only
// a value mapping grows with the data; it is appended entry by entry.
func appendExpr(dst []byte, f metafunc.Func, col string) []byte {
	m, ok := f.(*metafunc.Mapping)
	if !ok {
		return append(dst, sqlExpr(f, col)...)
	}
	dst = append(dst, "CASE "...)
	dst = append(dst, col...)
	for _, kv := range m.Entries() {
		dst = append(dst, " WHEN "...)
		dst = appendQuoted(dst, '\'', kv[0])
		dst = append(dst, " THEN "...)
		dst = appendQuoted(dst, '\'', kv[1])
	}
	dst = append(dst, " ELSE "...)
	dst = append(dst, col...)
	return append(dst, " END"...)
}

// sqlExpr translates a metafunc other than a value mapping into a portable
// SQL expression over col.
func sqlExpr(f metafunc.Func, col string) string {
	switch fn := f.(type) {
	case metafunc.Identity:
		return col
	case metafunc.Upper:
		return fmt.Sprintf("UPPER(%s)", col)
	case metafunc.Lower:
		return fmt.Sprintf("LOWER(%s)", col)
	case metafunc.Constant:
		return quoteStr(fn.C)
	case metafunc.Add:
		y, _ := fn.Y.Format()
		return fmt.Sprintf("CAST(%s AS DECIMAL) + %s", col, y)
	case metafunc.Scale:
		if k, ok := fn.K.Format(); ok {
			return fmt.Sprintf("CAST(%s AS DECIMAL) * %s", col, k)
		}
		return fmt.Sprintf("CAST(%s AS DECIMAL) * (%s)", col, fn.K.RatString())
	case metafunc.Prefix:
		return fmt.Sprintf("%s || %s", quoteStr(fn.Y), col)
	case metafunc.Suffix:
		return fmt.Sprintf("%s || %s", col, quoteStr(fn.Y))
	case metafunc.FrontMask:
		return fmt.Sprintf("CASE WHEN LENGTH(%s) >= %d THEN %s || SUBSTR(%s, %d) ELSE %s END",
			col, len(fn.M), quoteStr(fn.M), col, len(fn.M)+1, col)
	case metafunc.BackMask:
		return fmt.Sprintf("CASE WHEN LENGTH(%s) >= %d THEN SUBSTR(%s, 1, LENGTH(%s) - %d) || %s ELSE %s END",
			col, len(fn.M), col, col, len(fn.M), quoteStr(fn.M), col)
	case metafunc.FrontTrim:
		return fmt.Sprintf("LTRIM(%s, %s)", col, quoteStr(string(fn.C)))
	case metafunc.BackTrim:
		return fmt.Sprintf("RTRIM(%s, %s)", col, quoteStr(string(fn.C)))
	case metafunc.PrefixReplace:
		return fmt.Sprintf("CASE WHEN %s LIKE %s THEN %s || SUBSTR(%s, %d) ELSE %s END",
			col, quoteStr(likeEscape(fn.Y)+"%"), quoteStr(fn.Z), col, len(fn.Y)+1, col)
	case metafunc.SuffixReplace:
		return fmt.Sprintf("CASE WHEN %s LIKE %s THEN SUBSTR(%s, 1, LENGTH(%s) - %d) || %s ELSE %s END",
			col, quoteStr("%"+likeEscape(fn.Y)), col, col, len(fn.Y), quoteStr(fn.Z), col)
	case metafunc.Negation:
		return fmt.Sprintf("CASE %s WHEN '0' THEN '1' WHEN '1' THEN '0' ELSE %s END", col, col)
	}
	return fmt.Sprintf("%s /* unsupported function %s */", col, f)
}

// appendQuoted appends s between two q characters, doubling every q in s:
// the SQL spelling of a string literal (q = ') or an identifier (q = ").
func appendQuoted(dst []byte, q byte, s string) []byte {
	dst = append(dst, q)
	for {
		i := strings.IndexByte(s, q)
		if i < 0 {
			break
		}
		dst = append(dst, s[:i+1]...)
		dst = append(dst, q)
		s = s[i+1:]
	}
	dst = append(dst, s...)
	return append(dst, q)
}

func quoteStr(s string) string { return string(appendQuoted(nil, '\'', s)) }

func quoteIdent(s string) string { return string(appendQuoted(nil, '"', s)) }

func likeEscape(s string) string {
	s = strings.ReplaceAll(s, "%", `\%`)
	return strings.ReplaceAll(s, "_", `\_`)
}
