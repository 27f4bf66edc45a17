package frontend

import (
	"fmt"
	"strconv"

	"paradigm/internal/kernels"
	"paradigm/internal/matrix"
)

// genKind enumerates the built-in matrix generators.
type genKind uint8

const (
	genRamp genKind = iota
	genWave
	genOnes
	genIdent
)

// generator returns the row generator of a generator kind (see
// kernels.Kernel.Init). phase disambiguates multiple generators of the
// same kind so distinct matrices hold distinct values.
func (g genKind) generator(phase int) func(i, j0 int, row []float64) {
	switch g {
	case genRamp:
		return kernels.Elementwise(func(i, j int) float64 { return float64(i+2*j+phase) / 64 })
	case genWave:
		return func(i, j0 int, row []float64) {
			for k := range row {
				row[k] = float64(3*i-(j0+k)) / 11.0 * float64(phase+1)
			}
			matrix.Sin(row, row)
		}
	case genOnes:
		return kernels.Elementwise(func(i, j int) float64 { return 1 })
	case genIdent:
		return kernels.Elementwise(func(i, j int) float64 {
			if i == j {
				return 1
			}
			return 0
		})
	default:
		panic(fmt.Sprintf("frontend: unknown generator %d", g))
	}
}

// stmtKind enumerates statement types.
type stmtKind uint8

const (
	stmtParam stmtKind = iota
	stmtInit
	stmtExpr
)

// opKind enumerates binary matrix operators.
type opKind uint8

const (
	opAdd opKind = iota
	opSub
	opMul
)

// exprNode is a parsed right-hand-side expression: either a matrix
// reference or a binary operation. Multiplication binds tighter than
// addition and subtraction; parentheses group.
type exprNode interface{ isExpr() }

// exprName references a defined matrix.
type exprName struct {
	name string
	line int
}

// exprBin is a binary operation over two subexpressions.
type exprBin struct {
	op   opKind
	l, r exprNode
	line int
}

func (exprName) isExpr() {}
func (exprBin) isExpr()  {}

// stmt is one parsed statement.
type stmt struct {
	kind stmtKind
	line int
	name string

	// stmtParam
	value int

	// stmtInit: rows/cols are identifiers or literals resolved later.
	rows, cols operand
	gen        genKind

	// stmtExpr
	expr         exprNode
	axisCol      bool // "@ col" annotation
	axisGrid     bool // "@ grid" annotation (the 2D-distribution extension)
	axisExplicit bool
}

// operand is either an integer literal or a param reference.
type operand struct {
	lit   int
	ref   string
	isRef bool
}

// parser consumes the token stream.
type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) expect(k tokenKind) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, fmt.Errorf("frontend: line %d: expected %s, got %s", t.line, k, describe(t))
	}
	return t, nil
}

// parse builds the statement list.
func parse(toks []token) ([]stmt, error) {
	p := &parser{toks: toks}
	var stmts []stmt
	for {
		t := p.peek()
		switch t.kind {
		case tokEOF:
			return stmts, nil
		case tokNewline:
			p.next()
			continue
		case tokIdent:
			switch t.text {
			case "param":
				s, err := p.parseParam()
				if err != nil {
					return nil, err
				}
				stmts = append(stmts, s)
			case "matrix":
				s, err := p.parseMatrix()
				if err != nil {
					return nil, err
				}
				stmts = append(stmts, s)
			default:
				return nil, fmt.Errorf("frontend: line %d: expected 'param' or 'matrix', got %s", t.line, describe(t))
			}
		default:
			return nil, fmt.Errorf("frontend: line %d: expected statement, got %s", t.line, describe(t))
		}
	}
}

func (p *parser) parseName() (token, error) {
	t, err := p.expect(tokIdent)
	if err != nil {
		return t, err
	}
	if isKeyword(t.text) {
		return t, fmt.Errorf("frontend: line %d: %q is a reserved word", t.line, t.text)
	}
	return t, nil
}

// parseParam: param <name> = <number> \n
func (p *parser) parseParam() (stmt, error) {
	kw := p.next() // 'param'
	name, err := p.parseName()
	if err != nil {
		return stmt{}, err
	}
	if _, err := p.expect(tokEquals); err != nil {
		return stmt{}, err
	}
	num, err := p.expect(tokNumber)
	if err != nil {
		return stmt{}, err
	}
	v, err := strconv.Atoi(num.text)
	if err != nil || v <= 0 {
		return stmt{}, fmt.Errorf("frontend: line %d: invalid param value %q", num.line, num.text)
	}
	if _, err := p.expect(tokNewline); err != nil {
		return stmt{}, err
	}
	return stmt{kind: stmtParam, line: kw.line, name: name.text, value: v}, nil
}

// parseOperandInt: a number or a param reference.
func (p *parser) parseOperandInt() (operand, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		v, err := strconv.Atoi(t.text)
		if err != nil || v <= 0 {
			return operand{}, fmt.Errorf("frontend: line %d: invalid size %q", t.line, t.text)
		}
		return operand{lit: v}, nil
	case tokIdent:
		if isKeyword(t.text) {
			return operand{}, fmt.Errorf("frontend: line %d: %q cannot be a size", t.line, t.text)
		}
		return operand{ref: t.text, isRef: true}, nil
	default:
		return operand{}, fmt.Errorf("frontend: line %d: expected size, got %s", t.line, describe(t))
	}
}

// parseMatrix: matrix <name> = init(r, c, gen) [@ axis] \n
//
//	| matrix <name> = <name> (+|-|*) <name> [@ axis] \n
func (p *parser) parseMatrix() (stmt, error) {
	kw := p.next() // 'matrix'
	name, err := p.parseName()
	if err != nil {
		return stmt{}, err
	}
	if _, err := p.expect(tokEquals); err != nil {
		return stmt{}, err
	}
	s := stmt{line: kw.line, name: name.text}

	t := p.next()
	if t.kind == tokIdent && t.text == "init" {
		s.kind = stmtInit
		if _, err := p.expect(tokLParen); err != nil {
			return stmt{}, err
		}
		if s.rows, err = p.parseOperandInt(); err != nil {
			return stmt{}, err
		}
		if _, err := p.expect(tokComma); err != nil {
			return stmt{}, err
		}
		if s.cols, err = p.parseOperandInt(); err != nil {
			return stmt{}, err
		}
		if _, err := p.expect(tokComma); err != nil {
			return stmt{}, err
		}
		g, err := p.expect(tokIdent)
		if err != nil {
			return stmt{}, err
		}
		switch g.text {
		case "ramp":
			s.gen = genRamp
		case "wave":
			s.gen = genWave
		case "ones":
			s.gen = genOnes
		case "ident":
			s.gen = genIdent
		default:
			return stmt{}, fmt.Errorf("frontend: line %d: unknown generator %q (want ramp|wave|ones|ident)", g.line, g.text)
		}
		if _, err := p.expect(tokRParen); err != nil {
			return stmt{}, err
		}
	} else if (t.kind == tokIdent && !isKeyword(t.text)) || t.kind == tokLParen {
		s.kind = stmtExpr
		p.pos-- // re-read t inside the expression parser
		e, err := p.parseExpr()
		if err != nil {
			return stmt{}, err
		}
		if _, alias := e.(exprName); alias {
			return stmt{}, fmt.Errorf("frontend: line %d: plain alias %q = %q is not supported (expressions must compute)", t.line, name.text, t.text)
		}
		s.expr = e
	} else {
		return stmt{}, fmt.Errorf("frontend: line %d: expected 'init(...)' or an expression, got %s", t.line, describe(t))
	}

	// Optional axis annotation.
	if p.peek().kind == tokAt {
		p.next()
		a, err := p.expect(tokIdent)
		if err != nil {
			return stmt{}, err
		}
		switch a.text {
		case "row":
			s.axisCol = false
		case "col":
			s.axisCol = true
		case "grid":
			s.axisGrid = true
		default:
			return stmt{}, fmt.Errorf("frontend: line %d: axis must be 'row', 'col' or 'grid', got %q", a.line, a.text)
		}
		s.axisExplicit = true
	}
	if _, err := p.expect(tokNewline); err != nil {
		return stmt{}, err
	}
	return s, nil
}

// parseExpr parses additive expressions: term (('+'|'-') term)*.
func (p *parser) parseExpr() (exprNode, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		var op opKind
		switch t.kind {
		case tokPlus:
			op = opAdd
		case tokMinus:
			op = opSub
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left = exprBin{op: op, l: left, r: right, line: t.line}
	}
}

// parseTerm parses multiplicative expressions: factor ('*' factor)*.
func (p *parser) parseTerm() (exprNode, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokStar {
		t := p.next()
		right, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		left = exprBin{op: opMul, l: left, r: right, line: t.line}
	}
	return left, nil
}

// parseFactor parses a matrix reference or a parenthesized expression.
func (p *parser) parseFactor() (exprNode, error) {
	t := p.next()
	switch {
	case t.kind == tokLParen:
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent && !isKeyword(t.text):
		return exprName{name: t.text, line: t.line}, nil
	default:
		return nil, fmt.Errorf("frontend: line %d: expected a matrix name or '(', got %s", t.line, describe(t))
	}
}
