include Hlp_util.Json
