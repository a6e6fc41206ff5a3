package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// Print renders a statement back to SQL text. The output round-trips
// through the parser; the automatic query rewriter relies on this to
// emit rewritten workloads.
func Print(st Statement) string {
	switch s := st.(type) {
	case *Select:
		return PrintSelect(s)
	case *CreateTable:
		return printCreateTable(s)
	case *CreateIndex:
		return printCreateIndex(s)
	}
	return fmt.Sprintf("-- unprintable statement %T", st)
}

// PrintSelect renders a SELECT statement.
func PrintSelect(s *Select) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case it.Star && it.Expr == nil:
			b.WriteString("*")
		case it.Star:
			b.WriteString(it.Expr.(*ColumnRef).Table + ".*")
		default:
			b.WriteString(PrintExpr(it.Expr))
			if it.Alias != "" {
				b.WriteString(" AS " + it.Alias)
			}
		}
	}
	b.WriteString(" FROM ")
	for i, tr := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(tr.Table)
		if tr.Alias != "" {
			b.WriteString(" " + tr.Alias)
		}
	}
	for _, j := range s.Joins {
		b.WriteString(" JOIN " + j.Table.Table)
		if j.Table.Alias != "" {
			b.WriteString(" " + j.Table.Alias)
		}
		b.WriteString(" ON " + PrintExpr(j.Cond))
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + PrintExpr(s.Where))
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(PrintExpr(g))
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + PrintExpr(s.Having))
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(PrintExpr(o.Expr))
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		b.WriteString(" LIMIT " + strconv.FormatInt(s.Limit, 10))
	}
	return b.String()
}

// PrintExpr renders an expression with minimal but safe
// parenthesization (AND/OR nesting is always parenthesized when mixed).
func PrintExpr(e Expr) string {
	switch v := e.(type) {
	case *ColumnRef:
		return v.String()
	case *IntLit:
		return strconv.FormatInt(v.Value, 10)
	case *FloatLit:
		if v.Value == 0 {
			// Negative zero compares equal to zero; "-0" would parse
			// back as an integer and print as "0".
			return "0"
		}
		return strconv.FormatFloat(v.Value, 'g', -1, 64)
	case *StringLit:
		return "'" + strings.ReplaceAll(v.Value, "'", "''") + "'"
	case *BoolLit:
		if v.Value {
			return "TRUE"
		}
		return "FALSE"
	case *NullLit:
		return "NULL"
	case *BinaryExpr:
		l := PrintExpr(v.Left)
		r := PrintExpr(v.Right)
		if needsParens(v.Left, v.Op) {
			l = "(" + l + ")"
		}
		if needsParens(v.Right, v.Op) {
			r = "(" + r + ")"
		}
		return l + " " + v.Op.String() + " " + r
	case *NotExpr:
		return "NOT (" + PrintExpr(v.Inner) + ")"
	case *BetweenExpr:
		not := ""
		if v.Negated {
			not = "NOT "
		}
		return PrintExpr(v.Expr) + " " + not + "BETWEEN " + PrintExpr(v.Lo) + " AND " + PrintExpr(v.Hi)
	case *InExpr:
		not := ""
		if v.Negated {
			not = "NOT "
		}
		parts := make([]string, len(v.List))
		for i, x := range v.List {
			parts[i] = PrintExpr(x)
		}
		return PrintExpr(v.Expr) + " " + not + "IN (" + strings.Join(parts, ", ") + ")"
	case *LikeExpr:
		not := ""
		if v.Negated {
			not = "NOT "
		}
		return PrintExpr(v.Expr) + " " + not + "LIKE '" + strings.ReplaceAll(v.Pattern, "'", "''") + "'"
	case *IsNullExpr:
		if v.Negated {
			return PrintExpr(v.Expr) + " IS NOT NULL"
		}
		return PrintExpr(v.Expr) + " IS NULL"
	case *FuncExpr:
		if v.Star {
			return strings.ToUpper(v.Name) + "(*)"
		}
		parts := make([]string, len(v.Args))
		for i, a := range v.Args {
			parts[i] = PrintExpr(a)
		}
		return strings.ToUpper(v.Name) + "(" + strings.Join(parts, ", ") + ")"
	case *UnaryMinus:
		return "-(" + PrintExpr(v.Inner) + ")"
	}
	return fmt.Sprintf("<%T>", e)
}

// needsParens reports whether a child expression must be wrapped when
// printed under parent operator op.
func needsParens(child Expr, parent BinaryOp) bool {
	b, ok := child.(*BinaryExpr)
	if !ok {
		return false
	}
	return precedence(b.Op) < precedence(parent)
}

func precedence(op BinaryOp) int {
	switch op {
	case OpOr:
		return 1
	case OpAnd:
		return 2
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return 3
	case OpAdd, OpSub, OpConcat:
		return 4
	case OpMul, OpDiv:
		return 5
	}
	return 6
}

func printCreateTable(ct *CreateTable) string {
	var b strings.Builder
	b.WriteString("CREATE TABLE " + ct.Name + " (")
	for i, c := range ct.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name + " " + c.Type.String())
	}
	if len(ct.PrimaryKey) > 0 {
		b.WriteString(", PRIMARY KEY (" + strings.Join(ct.PrimaryKey, ", ") + ")")
	}
	b.WriteString(")")
	return b.String()
}

func printCreateIndex(ci *CreateIndex) string {
	u := ""
	if ci.Unique {
		u = "UNIQUE "
	}
	return "CREATE " + u + "INDEX " + ci.Name + " ON " + ci.Table +
		" (" + strings.Join(ci.Columns, ", ") + ")"
}
