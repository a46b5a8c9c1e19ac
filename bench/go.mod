module mochi/bench

go 1.22

require mochi v0.0.0

replace mochi => ../
