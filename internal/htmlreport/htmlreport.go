// Package htmlreport renders a pattern count–based label as a standalone
// HTML page — the "simple user interface" the paper sketches in §II-B
// ("the label's presentation may be manually refined and attributes can be
// filtered-out in order to adjust the information to the user's interest").
// The page is self-contained (inline CSS, no scripts) so it can be
// published next to the dataset together with the label artifact. It
// renders from a *core.Label, in-process or reopened from its artifact,
// and reads |D| from Label.Rows, so both render identically.
package htmlreport

import (
	"fmt"
	"html/template"
	"io"
	"sort"

	"pcbl/internal/core"
)

// Options configures the report.
type Options struct {
	// Title heads the page; the dataset name when empty.
	Title string
	// VCAttrs restricts the value-count section; all attributes when nil.
	VCAttrs []string
	// MaxPCRows truncates the pattern table; 0 = no limit.
	MaxPCRows int
	// Eval, when non-nil, adds the error summary block.
	Eval *core.EvalResult
}

type vcRow struct {
	Attr    string
	Value   string
	Count   int
	Percent float64
}

type pcRow struct {
	Values  []string
	Count   int
	Percent float64
}

type reportData struct {
	Title                   string
	TotalRows               int
	LabelAttrs              []string
	VCGroups                []vcGroup
	PCRows                  []pcRow
	Elided                  int
	Eval                    *core.EvalResult
	EvalMeanPct, EvalMaxPct float64
}

type vcGroup struct {
	Attr string
	Rows []vcRow
}

// Write renders the report for label l to w. Reading a merge-on-read PC
// section can fail; the read error is returned and nothing is written.
func Write(w io.Writer, l *core.Label, opts Options) error {
	d := l.Dataset()
	total := l.Rows()
	data := reportData{
		Title:     opts.Title,
		TotalRows: total,
		Eval:      opts.Eval,
	}
	for _, a := range l.Attrs().Members() {
		data.LabelAttrs = append(data.LabelAttrs, d.Attr(a).Name())
	}
	if data.Title == "" {
		data.Title = d.Name()
	}
	if data.Title == "" {
		data.Title = "Dataset label"
	}
	keep := map[string]bool{}
	for _, n := range opts.VCAttrs {
		keep[n] = true
	}
	for a := 0; a < d.NumAttrs(); a++ {
		attr := d.Attr(a)
		if len(keep) > 0 && !keep[attr.Name()] {
			continue
		}
		g := vcGroup{Attr: attr.Name()}
		for i, v := range attr.Domain() {
			c := l.ValueCount(a, uint16(i+1))
			g.Rows = append(g.Rows, vcRow{Attr: attr.Name(), Value: v, Count: c, Percent: pct(c, total)})
		}
		sort.SliceStable(g.Rows, func(x, y int) bool { return g.Rows[x].Count > g.Rows[y].Count })
		data.VCGroups = append(data.VCGroups, g)
	}
	pcRows, err := l.PCRows()
	if err != nil {
		return err
	}
	rows := make([]pcRow, len(pcRows))
	for i, r := range pcRows {
		rows[i] = pcRow{Values: r.Values, Count: r.Count, Percent: pct(r.Count, total)}
	}
	if opts.MaxPCRows > 0 && len(rows) > opts.MaxPCRows {
		data.Elided = len(rows) - opts.MaxPCRows
		rows = rows[:opts.MaxPCRows]
	}
	data.PCRows = rows
	if opts.Eval != nil && total > 0 {
		data.EvalMeanPct = 100 * opts.Eval.MeanAbs / float64(total)
		data.EvalMaxPct = 100 * opts.Eval.MaxAbs / float64(total)
	}
	return tmpl.Execute(w, data)
}

func pct(part, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

var tmpl = template.Must(template.New("report").Funcs(template.FuncMap{
	"pctf": func(p float64) string {
		switch {
		case p >= 1:
			return fmt.Sprintf("%.0f%%", p)
		case p >= 0.1:
			return fmt.Sprintf("%.1f%%", p)
		default:
			return fmt.Sprintf("%.2f%%", p)
		}
	},
	"barw": func(p float64) int {
		if p > 100 {
			p = 100
		}
		return int(p)
	},
}).Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Title}} — pattern count label</title>
<style>
  body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 52rem; color: #1a1a1a; }
  h1 { font-size: 1.4rem; border-bottom: 3px solid #1a1a1a; padding-bottom: .4rem; }
  h2 { font-size: 1.05rem; margin-top: 1.6rem; }
  table { border-collapse: collapse; width: 100%; }
  th, td { text-align: left; padding: .2rem .6rem; border-bottom: 1px solid #e2e2e2; }
  td.num { text-align: right; font-variant-numeric: tabular-nums; }
  .bar { background: #3a6ea5; height: .7rem; display: inline-block; vertical-align: middle; }
  .attr { font-weight: 600; }
  .summary { background: #f5f5f0; border: 1px solid #ddd; padding: .7rem 1rem; margin-top: 1.4rem; }
  footer { margin-top: 2rem; color: #777; font-size: .8rem; }
</style>
</head>
<body>
<h1>{{.Title}}</h1>
<p>Total size: <strong>{{.TotalRows}}</strong> tuples.
Pattern counts stored over <strong>{{range $i, $a := .LabelAttrs}}{{if $i}}, {{end}}{{$a}}{{end}}</strong>
({{len .PCRows}}{{if .Elided}}+{{.Elided}}{{end}} patterns).</p>

<h2>Value counts</h2>
{{range .VCGroups}}
<h3 class="attr">{{.Attr}}</h3>
<table>
<tr><th>Value</th><th>Count</th><th>%</th><th></th></tr>
{{range .Rows}}<tr><td>{{.Value}}</td><td class="num">{{.Count}}</td><td class="num">{{pctf .Percent}}</td><td><span class="bar" style="width:{{barw .Percent}}px"></span></td></tr>
{{end}}</table>
{{end}}

<h2>Pattern counts</h2>
<table>
<tr>{{range .LabelAttrs}}<th>{{.}}</th>{{end}}<th>Count</th><th>%</th></tr>
{{range .PCRows}}<tr>{{range .Values}}<td>{{.}}</td>{{end}}<td class="num">{{.Count}}</td><td class="num">{{pctf .Percent}}</td></tr>
{{end}}</table>
{{if .Elided}}<p>… {{.Elided}} more patterns elided.</p>{{end}}

{{if .Eval}}
<div class="summary">
<strong>Estimation quality</strong> (over {{.Eval.N}} patterns):
average error {{printf "%.1f" .Eval.MeanAbs}} ({{pctf .EvalMeanPct}}),
maximal error {{printf "%.0f" .Eval.MaxAbs}} ({{pctf .EvalMaxPct}}),
standard deviation {{printf "%.1f" .Eval.StdAbs}},
mean q-error {{printf "%.2f" .Eval.MeanQ}}.
</div>
{{end}}

<footer>Pattern count–based label (Moskovitch &amp; Jagadish, ICDE 2021).</footer>
</body>
</html>
`))
